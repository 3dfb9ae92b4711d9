import dataclasses
import hashlib
import pathlib
import random
from fractions import Fraction

import numpy as _np
import pytest

from botmatch import applications, diagram, geom, matching
from botmatch.applications import (
    CoverResult,
    Empty,
    PathResult,
    bottleneck_path,
    cover_radius,
    optimal_translation,
)
from botmatch.arrangement import Arrangement
from botmatch.diagram import eval_E, label_cells_incremental, reduced_arrangement
from botmatch.geom import (
    ContractViolation,
    EdgeRef,
    Instance,
    Point,
    _nearest_on_ring,
    _segment_point,
    convex_polygon,
    point,
)
from botmatch.oracle import grid_cover_radius, oracle_optimal_translation
from path_reference import _min_envelope_on_triples
from path_reference import bottleneck_path as reference_path
from path_reference import reference_arrangement, unreduced
from query_units import query_units
from translation_reference import closest_point_in_polygon
from translation_reference import optimal_translation as reference_translation
from translation_reference import walk_labels as reference_walk_labels


def _pts(coords):
    return tuple(point(x, y) for x, y in coords)


def _mk(a_coords, b_coords):
    return Instance(_pts(a_coords), _pts(b_coords))


def _random_instance(rng, n_max=6, k_max=3, span=5):
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n))
    pts: set[tuple[int, int]] = set()
    while len(pts) < n + k:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    flat = sorted(pts)
    rng.shuffle(flat)
    return _mk(flat[:n], flat[n : n + k])


def _random_t(rng, den=8, lim=80):
    return Point(
        Fraction(rng.randint(-lim, lim), den), Fraction(rng.randint(-lim, lim), den)
    )


def _segment_max(inst, a, b, steps=50):
    worst = None
    for i in range(steps + 1):
        v, _ = eval_E(inst, a + (b - a).scale(Fraction(i, steps)))
        if worst is None or v > worst:
            worst = v
    return worst


# -- optimal translation ----------------------------------------------------------


def test_optimal_translation_two_by_two():
    inst = _mk([(0, 0), (2, 0)], [(0, 0), (3, 0)])
    t, mu, value = optimal_translation(inst)
    assert value == Fraction(1, 4)
    assert t == point(Fraction(-1, 2), 0)
    assert max(t.dist2(inst.A[e.a] - inst.B[e.b]) for e in mu) == value


def test_optimal_translation_subset_translate():
    inst = _mk([(0, 0), (5, 1), (9, 9)], [(2, 2), (7, 3)])
    t, _mu, value = optimal_translation(inst)
    assert value == 0
    assert {b + t for b in inst.B} <= set(inst.A)


def test_optimal_translation_single_b():
    inst = _mk([(1, 1), (4, 0), (-3, 2)], [(0, 0)])
    t, _mu, value = optimal_translation(inst)
    assert value == 0
    assert t in set(inst.A)


def test_optimal_translation_matches_oracle():
    rng = random.Random(505)
    for _ in range(10):
        inst = _random_instance(rng)
        _t, _mu, value = optimal_translation(inst)
        _ot, oracle_value = oracle_optimal_translation(inst)
        assert value == oracle_value


def test_optimal_translation_dominates_samples():
    rng = random.Random(509)
    for _ in range(6):
        inst = _random_instance(rng)
        _t, _mu, value = optimal_translation(inst)
        for _ in range(100):
            sample, _ = eval_E(inst, _random_t(rng, den=16, lim=200))
            assert value <= sample


def test_optimal_translation_beats_every_cell_sample():
    rng = random.Random(513)
    for _ in range(4):
        inst = _random_instance(rng, n_max=5, span=4)
        _t, _mu, value = optimal_translation(inst)
        _bis, arr = reduced_arrangement(inst)
        for cid in range(arr.n_cells):
            v, _ = eval_E(inst, arr.cell_centroid(cid))
            assert value <= v


def _full_scan(inst):
    """Reference: label every cell, then take each cell's best point.

    Returns the lex-smallest optimal t, the value and the full labelling.
    """
    bis, arr = reduced_arrangement(inst)
    full = label_cells_incremental(inst, arr, bis)
    best = None
    for cid, label in enumerate(full.cells):
        site = inst.anchor(label.longest)
        t = closest_point_in_polygon(site, arr.cell_polygon(cid))
        key = (t.dist2(site), t.x, t.y)
        if best is None or key < best:
            best = key
    value, x, y = best
    return Point(x, y), value, full


def _spy_on_cell_labels(monkeypatch):
    """Record, per window, the cells optimal_translation labels and their labels."""
    walks = []
    real = applications._lex_cell_labels

    def spy(inst, arr, cells):
        labels = real(inst, arr, cells)
        cells = [int(c) for c in cells]
        walks.append((arr, cells, dict(zip(cells, labels))))
        return labels

    monkeypatch.setattr(applications, "_lex_cell_labels", spy)
    return walks


def _cocircular(rng, count):
    # the twelve integer points at distance 5 from the origin
    ring = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
            (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]
    return rng.sample(ring, count)


def _pruning_families():
    """Instances of criteria 5-7's families and of degenerate ones."""
    rng = random.Random(5_0607)
    for n_lo, n_hi, k_hi in ((2, 6, 3), (2, 6, 2), (3, 6, 2)):
        for _ in range(4):
            n = rng.randint(n_lo, n_hi)
            k = rng.randint(1, min(k_hi, n))
            pts: set[tuple[int, int]] = set()
            while len(pts) < n + k:
                pts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
            flat = sorted(pts)
            yield _mk(flat[:n], flat[n:])
    for _ in range(3):
        xs = rng.sample(range(-7, 8), rng.randint(3, 6))
        yield _mk([(x, 2 * x - 1) for x in xs], [(0, 0), (1, 3)])  # collinear A
    lattice = [(x, y) for x in range(-1, 2) for y in range(-1, 2)]
    yield _mk(lattice, [(0, 0), (1, 0), (0, 1)])
    yield _mk(lattice[:6], [(0, 0), (2, 0), (0, 2)])
    for _ in range(3):
        yield _mk(_cocircular(rng, 5), _cocircular(rng, 2))
    yield _mk(_cocircular(rng, 4), [(0, 0), (1, 0), (0, 1), (1, 1)])  # k = n
    yield _mk([(0, 0), (3, 1), (1, 4)], [(0, 0), (2, 2), (5, 0)])  # k = n


def test_pruned_optimal_translation_equals_full_scan(monkeypatch):
    walks = _spy_on_cell_labels(monkeypatch)
    counts = []
    for inst in _pruning_families():
        walks.clear()
        t, mu, value = optimal_translation(inst)
        ref_t, ref_value, full = _full_scan(inst)
        assert (t, value) == (ref_t, ref_value)
        assert sorted(e.b for e in mu) == list(range(inst.k))
        assert len({e.a for e in mu}) == inst.k
        assert max(t.dist2(inst.anchor(e)) for e in mu) == value
        # the cells were labelled on window arrangements; a labelled cell's
        # sample inside a cell of the whole box gets that cell's rank and
        # site, though tied optima may pick other matchings
        whole = full.arrangement
        x0, y0, x1, y1 = whole.box
        for arr, cells, labels in walks:
            for cid in cells:
                got, sample = labels[cid], arr.cell_centroid(cid)
                assert sample.dist2(inst.anchor(got.longest)) == eval_E(inst, sample)[0]
                if not (x0 < sample.x < x1 and y0 < sample.y < y1):
                    continue  # windows may reach past the whole box
                ref = whole.locate(sample)
                if ref.dim == 2:
                    assert got.rank == full.cell_label(ref.index).rank
                    assert inst.anchor(got.longest) == inst.anchor(full.cell_label(ref.index).longest)
        counts.append(
            (sum(len(c) for _, c, _ in walks), sum(a.n_cells for a, _, _ in walks), whole.n_cells)
        )
    # labelling every cell would pass the checks above; it must not happen,
    # neither of the whole box nor, thanks to the float filter, of the windows
    assert counts[2][0] < counts[2][2] // 100
    assert sum(c for c, _, _ in counts) < sum(w for _, _, w in counts) // 2
    assert sum(c for c, _, _ in counts) < sum(n for _, n, _ in counts)


def _align_instances():
    """The two instances of the benchmark's `align` workload at seed 0."""
    rng = random.Random(1010)
    for _ in range(2):
        pts: set[tuple[int, int]] = set()
        while len(pts) < 11:
            pts.add((rng.randint(-15, 15), rng.randint(-15, 15)))
        flat = sorted(pts)
        yield _mk(flat[:8], flat[8:])


def _in_three_frames(inst):
    """The instance as given and in two seeded congruent frames with shuffled points."""
    yield inst
    for seed, (a, b, c, d), sA, sB in ((1, (0, -1, 1, 0), (3, -2), (-1, 4)), (2, (1, 0, 0, -1), (-5, 1), (2, 2))):
        rng = random.Random(seed)
        A = [point(a * p.x + b * p.y + sA[0], c * p.x + d * p.y + sA[1]) for p in inst.A]
        B = [point(a * p.x + b * p.y + sB[0], c * p.x + d * p.y + sB[1]) for p in inst.B]
        rng.shuffle(A)
        rng.shuffle(B)
        yield Instance(tuple(A), tuple(B))


def _walk_depth(arr, cells, cid):
    """Depth of ``cid`` in any breadth-first forest of the walk over ``cells``.

    The component's start is its first cell in ``cells`` order, and a
    breadth-first tree puts every cell at its distance from the start.
    """
    inside = set(cells)
    dist = {cid: 0}
    queue = [cid]
    for c in queue:
        for nbr, _eid in arr.cell_neighbors(c):
            if nbr in inside and nbr not in dist:
                dist[nbr] = dist[c] + 1
                queue.append(nbr)
    start = next(c for c in cells if c in dist)
    return dist[start]


def test_returned_matching_is_the_walk_label_of_the_winning_cell(monkeypatch):
    winners, crossings = [], []
    label_of, crossed = applications._walk_label_of, diagram._crossed

    def spy_label_of(inst, arr, bisectors, cells, cid):
        winners.append((arr, bisectors, list(cells), cid))
        return label_of(inst, arr, bisectors, cells, cid)

    def counting_crossed(state, bisector):
        crossings.append(bisector)
        return crossed(state, bisector)

    monkeypatch.setattr(applications, "_walk_label_of", spy_label_of)
    monkeypatch.setattr(diagram, "_crossed", counting_crossed)
    deep = 0
    for base in [*_pruning_families(), *_align_instances()]:
        for inst in _in_three_frames(base):
            winners.clear()
            crossings.clear()
            t, mu, value = optimal_translation(inst)
            calls = len(crossings)
            [(arr, bis, cells, cid)] = winners
            # _crossed runs only along the winner's tree path
            depth = _walk_depth(arr, cells, cid)
            assert calls == depth
            deep += depth > 1
            full, _parts = diagram._walk_labels(inst, arr, bis, cells)
            ref, _parts = reference_walk_labels(inst, arr, bis, cells)
            assert mu == full[cid].matching == ref[cid].matching
            assert arr.cell_polygon(cid).contains(t)
            assert max(t.dist2(inst.anchor(e)) for e in mu) == value
    assert deep >= 10


# sha256 over the repr of every optimal_translation answer (t, matching, value)
# on the families above in three frames: any change of t, of the value or of
# the returned matching among tied optima shows here
_PINNED_ANSWERS = "4ebb2b09177982a3a61e9e0eb0b5551ab5fcfb1078c7d684b941b218fa86becc"


def _answers_digest(instances):
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(repr(optimal_translation(inst)).encode() + b"\n")
    return digest.hexdigest()


def test_optimal_translation_answers_are_pinned():
    frames = [f for base in [*_pruning_families(), *_align_instances()] for f in _in_three_frames(base)]
    assert _answers_digest(frames) == _PINNED_ANSWERS


def test_optimal_translation_builds_no_cell_polygon(monkeypatch):
    def refuse(arr, cid):
        raise AssertionError("a Fraction cell polygon was built")

    monkeypatch.setattr(Arrangement, "cell_polygon", refuse)
    frames = [f for base in [*_pruning_families(), *_align_instances()] for f in _in_three_frames(base)]
    assert _answers_digest(frames) == _PINNED_ANSWERS
    library = pathlib.Path(applications.__file__).parent
    assert [p.name for p in library.glob("*.py") if "closest_point_in_polygon" in p.read_text()] == []


def _site_kind(site, nearest, poly):
    if nearest != site:
        return "outside"
    if site in poly.vertices:
        return "vertex"
    return "inside" if poly.contains_interior(site) else "edge"


def test_nearest_on_ring_equals_the_polygon_reference(monkeypatch):
    # every cell of every optimizer window, against each anchor a - b (the
    # cell's own site among them); scaled by 10^9, some rings hold Python ints
    calls = []
    real = geom._segment_costs

    def costs(inst, sites, s0, s1):
        calls.append((list(sites), [tuple(r) for r in s0.tolist()], [tuple(r) for r in s1.tolist()]))
        return real(inst, sites, s0, s1)

    monkeypatch.setattr(geom, "_segment_costs", costs)
    kinds, wide = set(), []
    S = 10**9
    for base in _pruning_families():
        big = _mk([(p.x * S, p.y * S) for p in base.A], [(p.x * S, p.y * S) for p in base.B])
        for inst in (base, big):
            upper = min(eval_E(inst, inst.anchor(e))[0] for e in inst.edges())
            for window in applications._optimizer_windows(inst, upper):
                _bis, arr = reduced_arrangement(inst, window=window)
                if arr.vertex_triples().dtype == object:
                    wide.append(inst is big)
                for cid in range(arr.n_cells):
                    ring = [arr.vertex_triple(v) for v in arr.cell_cycle(cid)]
                    poly = arr.cell_polygon(cid)
                    for e in inst.edges():
                        site = inst.anchor(e)
                        t = closest_point_in_polygon(site, poly)
                        calls.clear()
                        assert _nearest_on_ring(inst, e, ring) == (t, t.dist2(site))
                        kinds.add(_site_kind(site, t, poly))
                        # a site in the closed cell is its own answer; any
                        # other is valued on every edge of the ring in one call
                        edges = ([e] * len(ring), ring, [*ring[1:], ring[0]])
                        assert calls == ([] if t == site else [edges])
    assert set(kinds) == {"inside", "edge", "vertex", "outside"}, kinds
    assert wide and all(wide)


def test_a_cell_sample_where_two_sites_tie_for_the_top_is_refused(monkeypatch):
    # the optimal matching {a0 b0, a1 b1} has the anchors (0, 0) and (3, 0),
    # which tie on the kept line x = 3/2 that holds the optimum
    inst = _mk([(0, 0), (4, 0)], [(0, 0), (1, 0)])
    t = point(Fraction(3, 2), 0)
    assert optimal_translation(inst) == (t, (EdgeRef(0, 0), EdgeRef(1, 1)), Fraction(9, 4))
    real = Arrangement.cell_samples
    moved = []

    def one_on_the_bisector(arr):
        rows = real(arr)
        x0, y0, x1, y1 = arr.box
        if not (x0 <= t.x <= x1 and y0 <= t.y <= y1):
            return rows
        rows = rows.copy()
        cid = arr.face_cells(arr.locate(t))[0]  # t is on an edge of this cell
        rows[cid] = (3, 0, 2)
        rows.flags.writeable = False
        moved.append(cid)
        return rows

    monkeypatch.setattr(Arrangement, "cell_samples", one_on_the_bisector)
    with pytest.raises(ContractViolation, match="two sites tie"):
        optimal_translation(inst)
    assert len(moved) == 1


def test_optimal_translation_scaled_past_int64_runs_on_python_ints(monkeypatch):
    dtypes = []
    real = diagram._lex_rows

    def spy(inst, samples):
        out = real(inst, samples)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(diagram, "_lex_rows", spy)
    S = 10**9
    for inst in [*_pruning_families(), *_align_instances()]:
        t, mu, value = optimal_translation(inst)
        big = _mk([(p.x * S, p.y * S) for p in inst.A], [(p.x * S, p.y * S) for p in inst.B])
        dtypes.clear()
        assert optimal_translation(big) == (point(t.x * S, t.y * S), mu, value * S * S)
        assert dtypes and all(dt == object for dt in dtypes)


def test_coordinates_past_float_range_without_a_common_scale_equal_the_oracle():
    # Random coordinates of 200 and 300 digits give lines whose directions,
    # times the vertices, pass float range: the vertex order key must stay
    # finite and keep its order.
    rng = random.Random(3)
    for S in (10**200, 10**300):
        for _ in range(2):
            inst = _mk(*([(rng.randint(-S, S), rng.randint(-S, S)) for _ in range(m)] for m in (4, 2)))
            t, _mu, value = optimal_translation(inst)
            assert (t, value) == oracle_optimal_translation(inst)
            assert diagram.build_diagram(inst).arrangement.vertex_triples().dtype == object


def _on_window_side(t, windows):
    return any(
        x0 <= t.x <= x1 and y0 <= t.y <= y1 and (t.x in (x0, x1) or t.y in (y0, y1))
        for x0, y0, x1, y1 in windows
    )


def test_optimal_translation_equals_whole_box_reference(monkeypatch):
    merges = []
    real = applications._merged

    def spy(boxes):
        out = real(boxes)
        merges.append(len(out) < len(boxes))
        return out

    monkeypatch.setattr(applications, "_merged", spy)
    on_side = 0
    for inst in [*_pruning_families(), *_align_instances()]:
        t, mu, value = optimal_translation(inst)
        ref_t, _ref_mu, ref_value = reference_translation(inst)
        assert (t, value) == (ref_t, ref_value)
        assert max(t.dist2(inst.anchor(e)) for e in mu) == value
        upper = min(eval_E(inst, inst.anchor(e))[0] for e in inst.edges())
        on_side += _on_window_side(t, applications._optimizer_windows(inst, upper))
    # optima on a window side, and windows merged from several boxes, occur
    assert on_side >= 1 and any(merges)


def test_windows_hold_every_optimizer_and_meet_nowhere():
    rng = random.Random(1_3001)
    for inst in _pruning_families():
        upper = min(eval_E(inst, inst.anchor(e))[0] for e in inst.edges())
        windows = applications._optimizer_windows(inst, upper)
        t, _mu, value = optimal_translation(inst)
        assert sum(x0 <= t.x <= x1 and y0 <= t.y <= y1 for x0, y0, x1, y1 in windows) == 1
        assert windows == sorted(windows)
        for a in windows:
            for b in windows:
                if a is not b:
                    assert a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]
        # every translation at most the incumbent is in some window
        for _ in range(200):
            p = _random_t(rng, den=4, lim=60)
            if eval_E(inst, p)[0] <= upper:
                assert any(x0 <= p.x <= x1 and y0 <= p.y <= y1 for x0, y0, x1, y1 in windows)


def test_merged_boxes_and_rounded_windows():
    merge = applications._merged
    assert merge([(0, 0, 1, 1), (3, 3, 4, 4)]) == [(0, 0, 1, 1), (3, 3, 4, 4)]
    assert merge([(2, 2, 4, 4), (0, 0, 2, 2)]) == [(0, 0, 4, 4)]  # corners touch
    # the hull of the last two reaches the first, which meets neither
    assert merge([(3, 3, 5, 5), (0, 0, 1, 4), (1, 0, 4, 1)]) == [(0, 0, 5, 5)]
    assert applications._window(Fraction(-1, 2), 3, Fraction(-1, 2), Fraction(7, 2)) == (-1, 3, 0, 4)


def test_optimal_translation_on_windows_no_line_crosses():
    # The incumbent is 0: each window is the unit box at an anchor, which no
    # bisector crosses, and both optima sit on window corners.
    inst = _mk([(0, 0), (10, 0)], [(0, 0)])
    assert applications._optimizer_windows(inst, Fraction(0)) == [(0, 0, 1, 1), (10, 0, 11, 1)]
    for window in [(0, 0, 1, 1), (10, 0, 11, 1)]:
        bis, arr = reduced_arrangement(inst, window=window)
        assert bis == [] and arr.n_cells == 1
    assert optimal_translation(inst) == (point(0, 0), (EdgeRef(0, 0),), 0)


def test_queries_build_no_whole_box_arrangement(monkeypatch):
    rng = random.Random(1_3002)
    instances = [_random_instance(rng, span=4) for _ in range(6)]
    ends = [(_random_t(rng, den=2, lim=12), _random_t(rng, den=2, lim=12)) for _ in instances]
    expected = [reference_translation(inst) for inst in instances]
    paths = [reference_path(inst, t0, t1).value for inst, (t0, t1) in zip(instances, ends)]
    real = diagram.build_arrangement

    def windowed_only(lines, must_contain=(), window=None):
        if window is None:
            raise AssertionError("a whole-box arrangement was built")
        return real(lines, must_contain, window)

    monkeypatch.setattr(diagram, "build_arrangement", windowed_only)
    Q = convex_polygon([(-6, -6), (6, -6), (6, 6), (-6, 6)])
    for inst, (t, _mu, value), (t0, t1), path_value in zip(instances, expected, ends, paths):
        got_t, _got_mu, got_value = optimal_translation(inst)
        assert (got_t, got_value) == (t, value)
        res = cover_radius(inst, Q)
        assert res is Empty or eval_E(inst, res.witness)[0] == res.value
        assert bottleneck_path(inst, t0, t1).value == path_value


def test_windowed_queries_equal_their_unreduced_runs():
    # the unreduced runs keep every bisector crossing each open window
    Q = convex_polygon([(-6, -6), (6, -6), (6, 6), (-6, 6)])
    for inst in [*_pruning_families(), *_align_instances()]:
        t, mu, value = optimal_translation(inst)
        full_t, _full_mu, full_value = unreduced(optimal_translation, inst)
        assert (t, value) == (full_t, full_value)
        assert max(t.dist2(inst.anchor(e)) for e in mu) == value
        assert cover_radius(inst, Q) == unreduced(cover_radius, inst, Q)


# -- bottleneck path --------------------------------------------------------------


def test_path_hand_case_crosses_midline():
    inst = _mk([(0, 0), (10, 0)], [(0, 0)])
    res = bottleneck_path(inst, point(0, 0), point(10, 0))
    assert res.value == 25
    assert res.polyline[0] == point(0, 0)
    assert res.polyline[-1] == point(10, 0)
    assert any(p.x == 5 for p in res.polyline[1:-1])
    assert max(res.vertex_values) == res.value


def test_path_zero_length():
    inst = _mk([(0, 0), (10, 0)], [(0, 0)])
    t = point(3, 1)
    res = bottleneck_path(inst, t, t)
    assert res.polyline == (t, t)
    assert res.value == eval_E(inst, t)[0]


def test_path_same_cell_is_straight():
    inst = _mk([(0, 0), (10, 0)], [(0, 0)])
    t0, t1 = point(1, 0), point(2, 1)
    res = bottleneck_path(inst, t0, t1)
    assert res.polyline == (t0, t1)
    assert res.value == max(eval_E(inst, t0)[0], eval_E(inst, t1)[0])


def test_path_reduction_independent_and_bounded():
    rng = random.Random(607)
    for _ in range(6):
        inst = _random_instance(rng, span=4)
        t0, t1 = _random_t(rng), _random_t(rng)
        res = bottleneck_path(inst, t0, t1)
        full = unreduced(bottleneck_path, inst, t0, t1)
        assert res.value == full.value
        e0, _ = eval_E(inst, t0)
        e1, _ = eval_E(inst, t1)
        assert res.value >= max(e0, e1)
        assert res.value <= _segment_max(inst, t0, t1)
        assert res.vertex_values == tuple(eval_E(inst, p)[0] for p in res.polyline)
        assert max(res.vertex_values) == res.value


def _path_and_window(inst, t0, t1):
    """The library's path and the window of the one arrangement it builds."""
    windows = []
    real = diagram.build_arrangement

    def spy(lines, must_contain=(), window=None):
        windows.append(window)
        return real(lines, must_contain, window)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "build_arrangement", spy)
        got = bottleneck_path(inst, t0, t1)
    [window] = windows
    assert window is not None
    return got, window


def _collapsed(res):
    """``res`` without the crossings that equal the point kept before them or t1.

    The reference keeps every crossing it walks back through, so two crossed
    edges whose minimizers meet at their shared vertex give a repeated point.
    """
    points = res.polyline
    keep = [0]
    for i in range(1, len(points) - 1):
        if points[i] != points[keep[-1]] and points[i] != points[-1]:
            keep.append(i)
    keep.append(len(points) - 1)
    return PathResult(
        tuple(points[i] for i in keep), res.value, tuple(res.vertex_values[i] for i in keep)
    )


def _check_path(inst, t0, t1):
    """Compare the library's path with the references.

    On the library's window the reference gives the same path once its
    repeated points are collapsed. On the whole box it gives the same value,
    though the polyline may differ: the window's reduction may drop a line
    the whole box's keeps.
    """
    got, window = _path_and_window(inst, t0, t1)
    # polyline, value and vertex values
    assert got == _collapsed(reference_path(inst, t0, t1, window))
    ref = reference_path(inst, t0, t1)
    assert got.value == ref.value
    x0, y0, x1, y1 = reference_arrangement(inst, t0, t1)[1].box
    assert x0 <= window[0] and y0 <= window[1] and window[2] <= x1 and window[3] <= y1


def _on_lines(inst, rng):
    """An arrangement vertex and a point inside an edge, both inside the box."""
    _bis, arr = reduced_arrangement(inst)
    x0, y0, x1, y1 = arr.box
    inside = []
    for eid in range(arr.n_edges):
        ends = [arr.vertex_point(v) for v in arr.edge_endpoints(eid)]
        if arr.edge_line(eid) < arr.n_lines and all(
            x0 < p.x < x1 and y0 < p.y < y1 for p in ends
        ):
            inside.append(ends)
    if not inside:
        return []
    p, q = rng.choice(inside)
    picks = [p, p + (q - p).scale(Fraction(1, 2))]
    for t in picks:
        assert len(arr.face_cells(arr.locate(t))) >= 2
    return picks


def test_path_equals_whole_box_reference():
    rng = random.Random(1_2060)
    placed = 0
    for inst in _pruning_families():
        ends = [point(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(2)]
        on_lines = _on_lines(inst, rng)
        placed += len(on_lines)
        pairs = [tuple(ends)] + [(t, ends[1]) for t in on_lines] + [(ends[0], t) for t in on_lines]
        if len(on_lines) == 2:
            pairs.append(tuple(on_lines))
        for t0, t1 in pairs:
            _check_path(inst, t0, t1)
    assert placed >= 30


# the first path of the bench's `queries` workload at seed 0
_FIRST_QUERY = _mk([(-3, 4), (1, 6), (2, -6), (3, -2), (5, -1)], [(5, 4), (6, 5)])


def test_path_takes_its_sites_from_one_lex_core_call(monkeypatch):
    inst = _FIRST_QUERY
    calls = []
    arrs = []

    def spy(module, name, into):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            into.append((name, args, out))
            return out

        monkeypatch.setattr(module, name, counted)

    spy(applications, "_lex_cell_labels", calls)
    for name in ("_start_state", "_crossed", "cross_bisector"):
        spy(diagram, name, calls)
    spy(matching, "cross_bisector", calls)
    spy(applications, "reduced_arrangement", arrs)
    res = bottleneck_path(inst, point(-7, -3), point(-5, 3))
    [(_name, _args, (_bis, arr))] = arrs
    # one lex-core call over the window's cells, and no walk step at all
    assert [(name, list(args[2])) for name, args, _out in calls] == [
        ("_lex_cell_labels", list(range(arr.n_cells)))
    ]
    assert res == _collapsed(reference_path(inst, point(-7, -3), point(-5, 3), arr.box))


def _spy_on_cost_pass(monkeypatch):
    """Record every ``_segment_costs`` call as (inst, sites, s0, s1, num, den, lnum, lden, ranks)."""
    passes = []
    real_costs, real_ranks = applications._segment_costs, applications._dense_ranks

    def costs(inst, sites, s0, s1):
        out = real_costs(inst, sites, s0, s1)
        passes.append([inst, list(sites), s0, s1, *out])
        return out

    def ranks(num, den):
        out = real_ranks(num, den)
        passes[-1].append(out)
        return out

    monkeypatch.setattr(applications, "_segment_costs", costs)
    monkeypatch.setattr(applications, "_dense_ranks", ranks)
    return passes


def _exact_dense_ranks(values):
    order = {v: r for r, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def test_edge_costs_and_ranks_equal_the_scalar_envelope(monkeypatch):
    passes = _spy_on_cost_pass(monkeypatch)
    rng = random.Random(1_9001)
    S = 10**9
    runs = []
    for inst in _pruning_families():
        runs.append((inst, *(point(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(2))))
    for seed in range(4):
        for kind, A, B, *args in query_units(seed):
            if kind == "path":
                runs.append((_mk(A, B), point(*args[0]), point(*args[1])))
    for inst, t0, t1 in runs:
        big = Instance(*(tuple(point(p.x * S, p.y * S) for p in ps) for ps in (inst.A, inst.B)))
        bottleneck_path(inst, t0, t1)
        bottleneck_path(big, point(t0.x * S, t0.y * S), point(t1.x * S, t1.y * S))
    assert len(passes) == 2 * len(runs)
    edges = 0
    for inst, sites, s0, s1, num, den, lnum, lden, ranks in passes:
        assert all(a.dtype == object and len(a) == len(sites) for a in (num, den, lnum, lden))
        values = []
        for site, u, v, n, d, ln, ld in zip(sites, s0.tolist(), s1.tolist(), num, den, lnum, lden):
            assert all(type(x) is int for x in (n, d, ln, ld)) and d > 0 and 0 <= ln <= ld and ld > 0
            values.append(Fraction(n, d))
            # point and value of the one-site kernel equal the multi-site envelope's
            want = _min_envelope_on_triples(inst, (site,), tuple(u), tuple(v))
            assert (_segment_point(u, v, ln, ld), values[-1]) == want
        assert ranks.tolist() == _exact_dense_ranks(values)
        edges += len(values)
    assert edges > 10_000 and any(p[2].dtype == object for p in passes)


def test_dense_ranks_settle_float_ties_exactly():
    ranks = applications._dense_ranks
    # 1 + 2^-60 and 1 are distinct but round to the same float
    assert (2**60 + 1) / 2**60 == 1.0
    num = _np.array([2**60 + 1, 1, 3, 7], dtype=object)
    den = _np.array([2**60, 1, 3, 2], dtype=object)
    assert ranks(num, den).tolist() == [1, 0, 0, 2]
    # one value written as two (num, den) pairs, among near misses below and above
    num = _np.array([2, 3 * 2**60 - 1, 1, 3 * 2**60 + 1, 0], dtype=object)
    den = _np.array([6, 9 * 2**60, 3, 9 * 2**60, 5], dtype=object)
    assert len({float(Fraction(n, d)) for n, d in zip(num[:4], den[:4])}) == 1
    assert ranks(num, den).tolist() == [2, 1, 2, 3, 0]
    assert ranks(_np.array([], dtype=object), _np.array([], dtype=object)).tolist() == []


def _walked_ends(inst, t0, t1):
    """Ends (s0, s1) and lam (lnum, lden) of each edge ``bottleneck_path`` walks back, last first."""
    walked = []
    real_point = applications._segment_point

    def segment_point(u, v, lnum, lden):
        walked.append(((tuple(u), tuple(v)), (lnum, lden)))
        return real_point(u, v, lnum, lden)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(applications, "_segment_point", segment_point)
        res = bottleneck_path(inst, t0, t1)
    return walked, res


def _patch_cost_row(monkeypatch, ends, change):
    """Let ``change(out, i)`` edit row i, the edge with ``ends``, of each cost pass; returns the rows."""
    real_costs = applications._segment_costs
    patched = []

    def costs(inst, sites, s0, s1):
        out = real_costs(inst, sites, s0, s1)
        i = list(zip(map(tuple, s0.tolist()), map(tuple, s1.tolist()))).index(ends)
        change(out, i)
        patched.append(i)
        return out

    monkeypatch.setattr(applications, "_segment_costs", costs)
    return patched


def test_path_ranks_every_edge_once_and_walks_back_through_the_envelope():
    cases = [
        (_FIRST_QUERY, point(-7, -3), point(-5, 3)),
        (_mk([(-4, -3), (5, 0), (-4, 3), (4, 3), (-3, 4)], [(5, 0), (-3, 4)]), point(-2, -9), point(4, 0)),
    ]
    real_neighbours = Arrangement.cell_neighbors
    real_reduced = applications.reduced_arrangement
    for inst, t0, t1 in cases:
        neighbours, arrs = [], []

        def cell_neighbors(arr, cid):
            neighbours.append(cid)
            return real_neighbours(arr, cid)

        def reduced(inst, **kwargs):
            out = real_reduced(inst, **kwargs)
            arrs.append(out[1])
            return out

        with pytest.MonkeyPatch.context() as mp:
            passes = _spy_on_cost_pass(mp)
            mp.setattr(Arrangement, "cell_neighbors", cell_neighbors)
            mp.setattr(applications, "reduced_arrangement", reduced)
            walked, res = _walked_ends(inst, t0, t1)
        [arr] = arrs
        # one cost pass for the one window, and no other kernel call
        [(_inst, sites, s0, s1, _num, _den, lnum, lden, ranks)] = passes
        assert len(sites) == len(list(arr.dual_edges())) == len(ranks)
        assert neighbours == []
        # the reference keeps every crossing it walks back through
        assert len(walked) == len(reference_path(inst, t0, t1, arr.box).polyline) - 2
        assert len(walked) >= len(res.polyline) - 2 > 0
        # each walked edge crosses at the minimizer its cost row gives
        rows = dict(zip(zip(map(tuple, s0.tolist()), map(tuple, s1.tolist())), zip(lnum, lden)))
        assert all(rows[ends] == lam for ends, lam in walked)
        assert set(res.polyline[1:-1]) <= {_segment_point(*ends, *lam) for ends, lam in walked}


def test_path_refuses_a_walked_edge_whose_ranked_cost_is_off(monkeypatch):
    inst, t0, t1 = _FIRST_QUERY, point(-7, -3), point(-5, 3)
    walked, _res = _walked_ends(inst, t0, t1)

    def off_by_one(out, i):
        out[0][i] += 1

    patched = _patch_cost_row(monkeypatch, walked[0][0], off_by_one)  # the last edge walked back
    with pytest.raises(ContractViolation, match="cost of its edge"):
        bottleneck_path(inst, t0, t1)
    assert len(patched) == 1


def test_path_refuses_a_walked_edge_whose_crossing_is_off():
    # lam moves along the edge, off its minimizer: the first-order certificate refuses it
    inst, t0, t1 = _FIRST_QUERY, point(-7, -3), point(-5, 3)
    walked, _res = _walked_ends(inst, t0, t1)

    def off(out, i):
        out[2][i], out[3][i] = (1, 3) if 2 * out[2][i] == out[3][i] else (1, 2)

    lams = set()
    for ends, (lnum, lden) in walked:
        lams.add("interior" if 0 < lnum < lden else "end")
        with pytest.MonkeyPatch.context() as mp:
            patched = _patch_cost_row(mp, ends, off)
            with pytest.raises(ContractViolation, match="not its least point"):
                bottleneck_path(inst, t0, t1)
        assert len(patched) == 1
    assert lams == {"interior", "end"}


def _off_site_labels(monkeypatch):
    """Patch the labels so that each cell's site is another matched edge's anchor, when one differs."""
    real = applications._lex_cell_labels
    moved = []

    def off_site(inst, arr, cells):
        labels = real(inst, arr, cells)
        out = []
        for label in labels:
            site = inst.anchor(label.longest)
            other = [e for e in label.matching if inst.anchor(e) != site]
            out.append(dataclasses.replace(label, longest=other[0]) if other else label)
            moved.append(bool(other))
        return out

    monkeypatch.setattr(applications, "_lex_cell_labels", off_site)
    return moved


def test_path_refuses_a_crossing_whose_value_is_not_its_edge_cost(monkeypatch):
    inst = _FIRST_QUERY
    t0, t1 = point(-7, -3), point(-5, 3)
    assert len(bottleneck_path(inst, t0, t1).polyline) > 2
    moved = _off_site_labels(monkeypatch)
    with pytest.raises(ContractViolation, match="crossing's value"):
        bottleneck_path(inst, t0, t1)
    assert any(moved)


def test_cover_refuses_a_witness_that_does_not_attain_its_value(monkeypatch):
    inst = _FIRST_QUERY
    Q = convex_polygon([(-4, -4), (4, -4), (4, 4), (-4, 4)])
    res = cover_radius(inst, Q)
    assert eval_E(inst, res.witness)[0] == res.value
    moved = _off_site_labels(monkeypatch)
    with pytest.raises(ContractViolation, match="witness"):
        cover_radius(inst, Q)
    assert any(moved)


# sha256 over the repr of the 192 path and cover answers on the `queries`
# units of seeds 0-11 (polyline, value, vertex values; value, witness,
# region): any change of a path's crossings or of a cover's witness among
# tied maxima shows here
_PINNED_QUERY_ANSWERS = "af2da14b4ff355b02532b04b7a04c346db8a450cfd39ddecb6a8d5a84c9517ab"


def test_path_and_cover_answers_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in range(12):
        for kind, A, B, *args in query_units(seed):
            inst = _mk(A, B)
            if kind == "path":
                got = bottleneck_path(inst, point(*args[0]), point(*args[1]))
            else:
                got = cover_radius(inst, convex_polygon(args[0]))
            digest.update(repr(got).encode() + b"\n")
            count += 1
    assert count == 192
    assert digest.hexdigest() == _PINNED_QUERY_ANSWERS


def test_path_and_cover_scaled_past_int64_run_on_python_ints(monkeypatch):
    dtypes = []
    real = diagram._lex_rows

    def spy(inst, samples):
        out = real(inst, samples)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(diagram, "_lex_rows", spy)
    S = 10**9
    rng = random.Random(9_0018)

    def scaled(p):
        return point(p.x * S, p.y * S)

    for inst in _pruning_families():
        big = Instance(tuple(map(scaled, inst.A)), tuple(map(scaled, inst.B)))
        t0, t1 = (point(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(2))
        half = rng.randint(4, 9)
        square = [(-half, -half), (half, -half), (half, half), (-half, half)]
        path = bottleneck_path(inst, t0, t1)
        cover = cover_radius(inst, convex_polygon(square))
        dtypes.clear()
        big_path, window = _path_and_window(big, scaled(t0), scaled(t1))
        assert dtypes and all(dt == object for dt in dtypes)
        # the scaled lines can have other primitive triples and sort in
        # another order, so tied optimal paths may break differently: the
        # value scales, every vertex value is the scaled value of the vertex
        # scaled back, and the reference on the same window agrees
        assert big_path.value == path.value * S * S
        back = [point(p.x / S, p.y / S) for p in big_path.polyline]
        assert big_path.vertex_values == tuple(eval_E(inst, p)[0] * S * S for p in back)
        assert big_path == _collapsed(reference_path(big, scaled(t0), scaled(t1), window))
        dtypes.clear()
        big_cover = cover_radius(big, convex_polygon([(x * S, y * S) for x, y in square]))
        if cover is Empty:
            assert big_cover is Empty
        else:
            assert big_cover.witness == scaled(cover.witness)
            assert big_cover.value == cover.value * S * S
            assert big_cover.region.vertices == tuple(map(scaled, cover.region.vertices))
            assert dtypes and all(dt == object for dt in dtypes)


def test_path_polyline_repeats_no_point():
    # two consecutive crossed edges have their minimizers at the vertex they
    # share four times on this path; the reference lists each such point twice
    inst = _mk([(-4, -3), (5, 0), (-4, 3), (4, 3), (-3, 4)], [(5, 0), (-3, 4)])
    t0, t1 = point(-2, -9), point(4, 0)
    res, window = _path_and_window(inst, t0, t1)
    ref = reference_path(inst, t0, t1, window)
    assert len(ref.polyline) - len(set(ref.polyline)) == 4
    assert res.value == ref.value == 85
    assert all(p != q for p, q in zip(res.polyline, res.polyline[1:]))
    assert point(0, -5) in res.polyline and len(res.polyline) == len(ref.polyline) - 4
    assert res == _collapsed(ref)
    assert res.vertex_values == tuple(eval_E(inst, p)[0] for p in res.polyline)


_LATTICE = _mk([(x, y) for x in range(-1, 2) for y in range(-1, 2)], [(0, 0), (1, 0), (0, 1)])


def test_path_between_equal_placements_at_an_anchor():
    single = _mk([(0, 0), (10, 0)], [(0, 0)])
    for inst in (single, _LATTICE):
        t = inst.anchor(EdgeRef(1, 0))
        res, window = _path_and_window(inst, t, t)
        assert res.polyline == (t, t) and res.value == eval_E(inst, t)[0]
        if inst is single:
            assert window == (10, 0, 11, 1)  # at value 0 the anchor is a window corner
        _check_path(inst, t, t)


def test_path_from_a_window_side():
    t0, t1 = point(-3, -1), point(-1, 1)
    res, window = _path_and_window(_LATTICE, t0, t1)
    assert window[0] == t0.x and len(res.polyline) > 2
    _check_path(_LATTICE, t0, t1)


def test_path_window_joins_boxes_only_after_merging(monkeypatch):
    inst = _mk([(-4, -5), (4, 5), (4, -3), (-1, 1)], [(1, -1)])
    t0, t1 = point(5, 0), point(-3, -2)
    _check_path(inst, t0, t1)
    merges = []
    real = applications._merged

    def spy(boxes):
        out = real(boxes)
        merges.append((boxes, out))
        return out

    monkeypatch.setattr(applications, "_merged", spy)
    res, window = _path_and_window(inst, t0, t1)
    [(boxes, windows)] = merges  # k = 1: one b0

    def inside(box, t):
        return box[0] <= t.x <= box[2] and box[1] <= t.y <= box[3]

    # the window merges several boxes, and on every box holding both
    # placements the best path is worse: only the merged window holds an optimum
    assert window in windows
    joined = [b for b in boxes if inside(window, point(b[0], b[1]))]
    both = [b for b in joined if inside(b, t0) and inside(b, t1)]
    assert len(joined) > len(both) > 0
    for box in both:
        assert reference_path(inst, t0, t1, box).value > res.value


def test_path_not_beaten_by_random_polylines():
    rng = random.Random(611)
    inst = _random_instance(rng, span=4)
    t0, t1 = _random_t(rng), _random_t(rng)
    res = bottleneck_path(inst, t0, t1)
    for _ in range(10):
        mid = _random_t(rng)
        detour = max(_segment_max(inst, t0, mid), _segment_max(inst, mid, t1))
        assert res.value <= detour


def test_path_interior_vertices_on_bisectors():
    rng = random.Random(613)
    inst = _random_instance(rng, span=4)
    t0, t1 = _random_t(rng), _random_t(rng)
    res, window = _path_and_window(inst, t0, t1)
    assert len(res.polyline) > 2
    bis, _arr = reduced_arrangement(inst, window=window)
    lines = [b.line for b in bis]
    for p in res.polyline[1:-1]:
        assert any(ln.side(p) == 0 for ln in lines)


# -- cover radius -----------------------------------------------------------------


def test_cover_unit_square_around_origin():
    inst = _mk([(0, 0)], [(0, 0)])
    Q = convex_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    res = cover_radius(inst, Q)
    assert isinstance(res, CoverResult)
    assert res.value == 2
    assert abs(res.witness.x) == 1 and abs(res.witness.y) == 1
    assert res.region.vertices == Q.vertices


def test_cover_single_feasible_overlay():
    # Q pins B to exactly one translation, which overlays A perfectly.
    inst = _mk([(0, 0), (2, 0), (0, 2), (2, 2)], [(0, 0), (2, 0), (0, 2), (2, 2)])
    Q = convex_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    res = cover_radius(inst, Q)
    assert isinstance(res, CoverResult)
    assert res.value == 0
    assert res.witness == point(0, 0)
    assert res.region.vertices == (point(0, 0),)


def test_cover_empty_region():
    inst = _mk([(0, 0), (9, 9)], [(0, 0), (5, 0)])
    Q = convex_polygon([(0, 0), (1, 0), (0, 1)])
    assert cover_radius(inst, Q) is Empty
    assert not Empty


def test_cover_degenerate_segment_region():
    inst = _mk([(0, 1), (2, 1)], [(0, 0), (2, 0)])
    Q = convex_polygon([(0, -1), (2, -1), (2, 1), (0, 1)])
    res = cover_radius(inst, Q)
    assert isinstance(res, CoverResult)
    assert res.region.dim == 1
    # Placements slide B along x = 0; the farthest from the overlay at
    # t = (0, 1) is t = (0, -1), two units below.
    assert res.value == 4
    assert res.witness == point(0, -1)


def test_cover_dominates_and_grid_converges():
    rng = random.Random(701)
    checked = 0
    while checked < 6:
        inst = _random_instance(rng, span=5)
        half = rng.randint(4, 9)
        Q = convex_polygon(
            [(-half, -half), (half, -half), (half, half), (-half, half)]
        )
        res = cover_radius(inst, Q)
        if res is Empty:
            continue
        checked += 1
        wv, _ = eval_E(inst, res.witness)
        assert wv == res.value
        assert res.region.contains(res.witness)
        g8 = grid_cover_radius(inst, Q, 8)
        g16 = grid_cover_radius(inst, Q, 16)
        g32 = grid_cover_radius(inst, Q, 32)
        assert g8 <= g16 <= g32 <= res.value
        vs = res.region.vertices
        for _ in range(20):
            ws = [Fraction(rng.randint(1, 50)) for _ in vs]
            s = sum(ws)
            inner = Point(
                sum(w * v.x for w, v in zip(ws, vs)) / s,
                sum(w * v.y for w, v in zip(ws, vs)) / s,
            )
            v, _ = eval_E(inst, inner)
            assert v <= res.value
