"""Property tests on small degenerate instances, checked against references.

Hypothesis runs derandomized, so every run draws the same examples and a
failure reproduces. The cover differential test compares the integer clipping
kernel with a Fraction reference on the same pools and on random instances.
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botmatch import diagram
from botmatch.applications import Empty, bottleneck_path, cover_radius, optimal_translation
from botmatch.arrangement import all_bisectors, build_arrangement, used_bisectors
from botmatch.diagram import eval_E
from botmatch.geom import ConvexPolygon, Instance, Point, convex_polygon, erode_polygon, point
from botmatch.oracle import grid_cover_radius, oracle_optimal_translation
from fraction_geometry import _halfplane_clip
from path_reference import unreduced

# Point pools whose members are collinear, on a lattice or co-circular.
POOLS = {
    "grid": [(x, y) for x in range(-3, 4) for y in range(-3, 4)],
    "collinear": [(x, 2 * x - 1) for x in range(-3, 4)],
    "lattice": [(x, y) for x in range(0, 6, 2) for y in range(0, 4, 2)],
    "cocircular": [
        (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
        (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3),
    ],
}


@st.composite
def instances(draw):
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, n)))
    A = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    B = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return Instance(
        tuple(point(x, y) for x, y in A), tuple(point(x, y) for x, y in B)
    )


@st.composite
def placements(draw):
    den = draw(st.sampled_from([1, 2, 3]))
    return point(
        Fraction(draw(st.integers(-6 * den, 6 * den)), den),
        Fraction(draw(st.integers(-6 * den, 6 * den)), den),
    )


@st.composite
def regions(draw):
    """A square or a triangle around the origin, large enough to hold B."""
    cx, cy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    h = draw(st.integers(3, 6))
    if draw(st.booleans()):
        return convex_polygon(
            [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]
        )
    return convex_polygon([(cx - h, cy - h), (cx + 2 * h, cy), (cx, cy + 2 * h)])


PROPERTY_SETTINGS = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY_SETTINGS
@given(instances())
def test_optimal_translation_equals_oracle(inst):
    t, mu, value = optimal_translation(inst)
    oracle_t, oracle_value = oracle_optimal_translation(inst)
    assert value == oracle_value
    assert t == oracle_t
    assert sorted(e.b for e in mu) == list(range(inst.k))
    assert len({e.a for e in mu}) == inst.k
    assert max(t.dist2(inst.anchor(e)) for e in mu) == value


@PROPERTY_SETTINGS
@given(instances(), placements(), placements())
def test_bottleneck_path_properties(inst, t0, t1):
    res = bottleneck_path(inst, t0, t1)
    assert res.value == unreduced(bottleneck_path, inst, t0, t1).value
    # the straight segment never does worse than the matching of t0 at both ends
    e0, mu0 = eval_E(inst, t0)
    assert res.value <= max(e0, max(t1.dist2(inst.anchor(e)) for e in mu0))
    assert res.vertex_values == tuple(eval_E(inst, p)[0] for p in res.polyline)
    assert (res.polyline[0], res.polyline[-1]) == (t0, t1)


def test_queries_scaled_by_10_9_give_the_scaled_answers(monkeypatch):
    # Scaled by 10**9, the arrangements run on Python ints; every answer is
    # the unscaled one, scaled, and the optimum still equals the oracle's.
    S = 10**9
    widths = []
    real_build = diagram.build_arrangement

    def build(*args, **kwargs):
        arr = real_build(*args, **kwargs)
        widths.append(arr.vertex_triples().dtype)
        return arr

    monkeypatch.setattr(diagram, "build_arrangement", build)

    def scaled(p):
        return Point(p.x * S, p.y * S)

    @PROPERTY_SETTINGS
    @given(instances(), placements(), placements(), regions())
    def check(inst, t0, t1, Q):
        big = Instance(tuple(map(scaled, inst.A)), tuple(map(scaled, inst.B)))
        t, _mu, value = optimal_translation(big)
        oracle_t, oracle_value = oracle_optimal_translation(inst)
        assert (t, value) == (scaled(oracle_t), oracle_value * S * S)
        path = bottleneck_path(big, scaled(t0), scaled(t1))
        assert path.value == bottleneck_path(inst, t0, t1).value * S * S
        cover = cover_radius(big, ConvexPolygon(tuple(map(scaled, Q.vertices))))
        want = cover_radius(inst, Q)
        if want is Empty:
            assert cover is Empty
        else:
            assert (cover.value, cover.witness) == (want.value * S * S, scaled(want.witness))

    check()
    assert object in widths


@PROPERTY_SETTINGS
@given(instances(), regions())
def test_cover_radius_properties(inst, Q):
    res = cover_radius(inst, Q)
    if res is Empty:
        assert erode_polygon(Q, inst.B) is None
        return
    assert res.region.contains(res.witness)
    assert eval_E(inst, res.witness)[0] == res.value
    assert grid_cover_radius(inst, Q, 8) <= res.value


# -- integer cover clipping against a Fraction reference --------------------------


def _cover_reference(inst, Q):
    """The cover radius clipped in Fractions: each cell's ConvexPolygon cuts the region.

    The arrangement is the whole box, grown to hold the region, so it shares
    no window with ``cover_radius``. Cells whose float bounding box misses
    the region's by more than a margin meet no region point, and are skipped
    to keep the Fraction clipping fast.
    """
    region = erode_polygon(Q, inst.B)
    if region is None:
        return Empty
    lines = [b.line for b in used_bisectors(inst, all_bisectors(inst))]
    anchors = [inst.anchor(e) for e in inst.edges()]
    arr = build_arrangement(lines, must_contain=anchors + list(region.vertices))
    bounds = arr.cell_bounds_float()
    pad = 1e-7 * (float(np.abs(bounds).max()) + 1.0)
    qx = [float(v.x) for v in region.vertices]
    qy = [float(v.y) for v in region.vertices]
    candidates: dict[Point, None] = {}
    for cid, (x0, y0, x1, y1) in enumerate(bounds.tolist()):
        if x0 > max(qx) + pad or x1 < min(qx) - pad or y0 > max(qy) + pad or y1 < min(qy) - pad:
            continue
        piece = list(region.vertices)
        for v, w in arr.cell_polygon(cid).edges():
            d = w - v
            normal = Point(d.y, -d.x)
            piece = _halfplane_clip(piece, normal, normal.dot(v))
            if not piece:
                break
        candidates.update(dict.fromkeys(piece))
    # largest value first, then the smallest (x, y)
    witness = max(candidates, key=lambda p: (eval_E(inst, p)[0], -p.x, -p.y))
    return eval_E(inst, witness)[0], witness, region


def _random_instance(rng, pool, n, k):
    A = rng.sample(pool, n)
    B = rng.sample([(x, y) for x in range(-2, 3) for y in range(-2, 3)], k)
    return Instance(tuple(point(x, y) for x, y in A), tuple(point(x, y) for x, y in B))


def _cover_cases():
    rng = random.Random(5757)
    grid = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]  # criteria 5-7
    for name, pool in [("criteria", grid)] + sorted(POOLS.items()):
        for _ in range(4):
            n = rng.randint(2, min(6, len(pool)))
            k = rng.randint(1, min(3, n))
            yield name, _random_instance(rng, pool, n, k)
        n = rng.randint(1, 3)
        yield name + " k=n", _random_instance(rng, pool, n, n)


def test_cover_radius_equals_fraction_reference():
    rng = random.Random(5858)
    dims = set()
    for name, inst in _cover_cases():
        h = rng.randint(2, 4)
        third = Fraction(rng.randint(1, 5), 3)
        shapes = [
            convex_polygon([(-h, -h), (h, -h), (h, h), (-h, h)]),
            convex_polygon([(-h, -third), (h + third, -h), (third, h + 1)]),
        ]
        xs = [p.x for p in inst.B]
        ys = [p.y for p in inst.B]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        if x0 < x1 and y0 < y1:
            # B's bounding box, then that box widened along x: the region is
            # a single point, then a segment
            shapes.append(convex_polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]))
            shapes.append(
                convex_polygon([(x0 - h, y0), (x1 + h, y0), (x1 + h, y1), (x0 - h, y1)])
            )
        for Q in shapes:
            res = cover_radius(inst, Q)
            want = _cover_reference(inst, Q)
            got = res if res is Empty else (res.value, res.witness, res.region)
            assert got == want, (name, inst, Q)
            if res is not Empty:
                dims.add(res.region.dim)
    assert dims == {0, 1, 2}
