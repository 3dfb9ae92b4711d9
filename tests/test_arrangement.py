import ast
import hashlib
import pathlib
import random
from fractions import Fraction
from itertools import combinations

import numpy as _np
import pytest

import botmatch
from botmatch.geom import (
    ContractViolation,
    EdgeRef,
    Instance,
    Point,
    line_intersection,
    make_line,
    orientation,
    point,
    squared_edge_length,
)
from botmatch import applications, arrangement
from botmatch.arrangement import (
    Arrangement,
    Bisector,
    FaceRef,
    OutsideBox,
    all_bisectors,
    build_arrangement,
    used_bisectors,
)
from fraction_geometry import canonical_convex
from sample_reference import face_sample_triple as reference_sample
from test_acceptance import _rand_points

E = EdgeRef


def _pts(coords):
    return tuple(point(x, y) for x, y in coords)


def _mk(a_coords, b_coords):
    return Instance(_pts(a_coords), _pts(b_coords))


def _random_instance(rng, n_max=6, k_max=3, span=7):
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n))
    pts: set[tuple[int, int]] = set()
    while len(pts) < n + k:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    flat = sorted(pts)
    rng.shuffle(flat)
    return _mk(flat[:n], flat[n : n + k])


# --- all_bisectors ----------------------------------------------------------


def test_two_points_one_center_single_bisector():
    inst = _mk([(0, 0), (2, 0)], [(0, 0)])
    bis = all_bisectors(inst)
    assert len(bis) == 1
    (b,) = bis
    assert len(b.edge_pairs) == 1
    e1, e2 = b.edge_pairs[0]
    assert e1.b == e2.b
    assert {e1, e2} == {E(0, 0), E(1, 0)}


def test_equivalent_pair_induces_no_bisector():
    inst = _mk([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    bis = all_bisectors(inst)
    recorded = [frozenset((p[0], p[1])) for b in bis for p in b.edge_pairs]
    # (a0,b0) and (a1,b1) share the difference vector (-5,0): no line.
    assert frozenset((E(0, 0), E(1, 1))) not in recorded
    assert len(recorded) == 5
    assert len(set(recorded)) == 5
    assert len(bis) == 3


def test_coincident_lines_merge_into_one_bisector():
    inst = _mk([(-1, 0), (1, 0)], [(0, -1), (0, 1)])
    bis = all_bisectors(inst)
    vertical = [b for b in bis if b.line == make_line(1, 0, 0)]
    assert len(vertical) == 1
    pairs = vertical[0].edge_pairs
    assert len(pairs) == 2
    assert all(e1.b == e2.b for e1, e2 in pairs)


def test_bisector_count_bound_and_pair_consistency():
    rng = random.Random(411)
    for _ in range(20):
        inst = _random_instance(rng)
        bis = all_bisectors(inst)
        nk = inst.n * inst.k
        assert len(bis) <= nk * (nk - 1) // 2
        for b in bis:
            for e1, e2 in b.edge_pairs:
                from botmatch.geom import bisector_line

                assert bisector_line(inst, e1, e2) == b.line


def test_ep_pair_edges_equal_length_on_line():
    rng = random.Random(97)
    for _ in range(12):
        inst = _random_instance(rng)
        for b in all_bisectors(inst):
            base = b.line.some_point()
            d = b.line.direction()
            for _ in range(3):
                lam = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                t = base + d.scale(lam)
                for e1, e2 in b.edge_pairs:
                    assert squared_edge_length(inst, e1, t) == squared_edge_length(
                        inst, e2, t
                    )


# --- used_bisectors ---------------------------------------------------------


def test_triangle_voronoi_keeps_all():
    inst = _mk([(0, 0), (4, 0), (0, 4)], [(0, 0)])
    bis = all_bisectors(inst)
    assert len(bis) == 3
    assert used_bisectors(inst, bis) == bis


def test_collinear_outer_pair_dropped():
    inst = _mk([(0, 0), (2, 0), (4, 0)], [(0, 0)])
    bis = all_bisectors(inst)
    used = used_bisectors(inst, bis)
    kept_lines = {b.line for b in used}
    assert make_line(1, 0, 1) in kept_lines
    assert make_line(1, 0, 3) in kept_lines
    # Bisector of the outer pair: the middle point is strictly closer
    # everywhere on x=2, so it never bounds a candidate change.
    assert make_line(1, 0, 2) not in kept_lines


def test_k_equals_n_drops_nothing():
    rng = random.Random(5)
    for _ in range(6):
        n = rng.randint(2, 4)
        pts: set[tuple[int, int]] = set()
        while len(pts) < 2 * n:
            pts.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        flat = sorted(pts)
        inst = _mk(flat[:n], flat[n:])
        bis = all_bisectors(inst)
        assert used_bisectors(inst, bis) == bis


def test_used_is_subset_preserving_order():
    rng = random.Random(88)
    for _ in range(15):
        inst = _random_instance(rng)
        bis = all_bisectors(inst)
        used = used_bisectors(inst, bis)
        idx = {id(b): i for i, b in enumerate(bis)}
        positions = [idx[id(b)] for b in used]
        assert positions == sorted(positions)
        assert set(id(b) for b in used) <= set(id(b) for b in bis)


def _fraction_chord(line, window):
    """The closed interval of lam with some_point + lam * direction in ``window``."""
    base, d = line.some_point(), line.direction()
    x0, y0, x1, y1 = window
    lo, hi = [], []
    for b, dv, v0, v1 in ((base.x, d.x, x0, x1), (base.y, d.y, y0, y1)):
        if dv:
            ends = sorted(((v0 - b) / dv, (v1 - b) / dv))
            lo.append(ends[0])
            hi.append(ends[1])
    return max(lo), min(hi)


def _crosses_open_window(line, window):
    x0, y0, x1, y1 = window
    sides = [line.side(point(x, y)) for x in (x0, x1) for y in (y0, y1)]
    return min(sides) < 0 < max(sides)


def _fraction_supports_change(inst, line, e1, e2, window=None):
    """The reduction's per-pair test written directly in Fractions, and how its end counts settle it.

    A translation t on the line counts a site s when |t - s|^2 < |t - p|^2;
    the pair survives when that count drops to the threshold somewhere, or
    somewhere on the line's chord in the closed ``window``. The outcome is
    "dropped" when the sites counted at both ends of the chord (of the whole
    line: lam -> -inf and +inf) pass the threshold, "lo" or "hi" when the
    count at that end is within it, and "swept" otherwise.
    """
    base, d = line.some_point(), line.direction()
    p, q = inst.anchor(e1), inst.anchor(e2)
    sites = {inst.A[a] - inst.B[e1.b] for a in range(inst.n)}
    threshold = inst.k - 1
    if e1.b != e2.b:
        sites |= {inst.A[a] - inst.B[e2.b] for a in range(inst.n)}
        threshold = 2 * inst.k - 2
    sites -= {p, q}
    always, cuts = 0, []
    for s in sites:
        u = p - s
        coef = 2 * d.dot(u)
        const = 2 * base.dot(u) - p.norm2() + s.norm2()
        if coef == 0:
            always += const < 0
        else:
            cuts.append((-const / coef, coef > 0))

    def held(lam, th, lt):
        return lam < th if lt else lam > th

    thetas = sorted({th for th, _ in cuts})
    if window is not None:
        lo, hi = _fraction_chord(line, window)
        thetas = sorted({lo, hi} | {th for th in thetas if lo <= th <= hi})
        probes = thetas + [(x + y) / 2 for x, y in zip(thetas, thetas[1:])]
        at_lo, at_hi = (always + sum(held(lam, *c) for c in cuts) for lam in (lo, hi))
        both = always + sum(held(lo, *c) and held(hi, *c) for c in cuts)
    else:
        probes = [thetas[0] - 1, thetas[-1] + 1] if thetas else [Fraction(0)]
        probes += thetas + [(x + y) / 2 for x, y in zip(thetas, thetas[1:])]
        at_lo = always + sum(lt for _, lt in cuts)
        at_hi = always + sum(not lt for _, lt in cuts)
        both = always
    count = min(always + sum(held(lam, *c) for c in cuts) for lam in probes)
    if both > threshold:
        outcome = "dropped"
    elif at_lo <= threshold:
        outcome = "lo"
    elif at_hi <= threshold:
        outcome = "hi"
    else:
        outcome = "swept"
    return count <= threshold, outcome


def _rational_instance(rng):
    # rational coordinates, so the integer frame has to clear denominators
    n = rng.randint(2, 6)
    k = rng.randint(1, min(3, n))
    pts: set[Point] = set()
    while len(pts) < n + k:
        den = rng.choice([1, 1, 2, 3])
        pts.add(
            Point(
                Fraction(rng.randint(-5 * den, 5 * den), den),
                Fraction(rng.randint(-5 * den, 5 * den), den),
            )
        )
    flat = sorted(pts)
    rng.shuffle(flat)
    return Instance(tuple(flat[:n]), tuple(flat[n:]))


_BIG = 10**9  # takes the reduction's values past the int64 bound


def _scaled(inst, scale):
    return Instance(
        tuple(Point(p.x * scale, p.y * scale) for p in inst.A),
        tuple(Point(p.x * scale, p.y * scale) for p in inst.B),
    )


def _degenerate_instances():
    """Collinear, co-circular and lattice sets and k = n, each also scaled by ``_BIG``."""
    base = [
        _mk([(0, 0), (2, 1), (4, 2), (6, 3), (8, 4)], [(1, 0), (3, 1)]),  # collinear A
        _mk([(0, 0), (1, 0), (3, 0), (4, 0)], [(0, 0), (2, 0)]),  # collinear sites
        _mk([(5, 0), (3, 4), (0, 5), (-4, 3), (-5, 0), (0, -5)], [(0, 0)]),  # co-circular sites
        _mk([(5, 0), (3, 4), (-3, 4), (-4, -3), (4, -3)], [(0, 0), (1, 0)]),
        _mk([(x, y) for x in range(3) for y in range(2)], [(0, 0), (1, 1), (2, 0)]),  # lattice
        _mk([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0)], [(0, 0), (2, 0)]),
        _mk([(0, 0), (3, 1), (1, 4)], [(2, 2), (0, 1), (4, 0)]),  # k = n
        _mk([(0, 0), (2, 0), (4, 0)], [(0, 0), (0, 2), (2, 2)]),  # k = n on a lattice
    ]
    return [(inst, 1) for inst in base] + [(_scaled(inst, _BIG), _BIG) for inst in base]


def _watch_reduction(monkeypatch):
    """The kernel's value dtypes and the number of swept rows, filled in as the reduction runs."""
    seen = {"dtypes": set(), "swept": 0}
    flags, sweep = arrangement._end_flags, arrangement._min_coverage

    def watched_flags(first, second, windowed):
        seen["dtypes"].add(first.dtype)
        return flags(first, second, windowed)

    def watched_sweep(*args):
        seen["swept"] += 1
        return sweep(*args)

    monkeypatch.setattr(arrangement, "_end_flags", watched_flags)
    monkeypatch.setattr(arrangement, "_min_coverage", watched_sweep)
    return seen


_OUTCOMES = {"dropped", "lo", "hi", "swept"}


def _fraction_used(inst, bis, window=None):
    """The lines the Fraction definition keeps, and the outcomes of all their pairs."""
    want, outcomes = [], set()
    for b in bis:
        if window is not None and not _crosses_open_window(b.line, window):
            continue
        results = [_fraction_supports_change(inst, b.line, e1, e2, window) for e1, e2 in b.edge_pairs]
        outcomes |= {outcome for _, outcome in results}
        if any(keep for keep, _ in results):
            want.append(b)
    return want, outcomes


def test_used_bisectors_match_fraction_definition(monkeypatch):
    rng = random.Random(89)
    seen = _watch_reduction(monkeypatch)
    pool = [_rational_instance(rng) for _ in range(25)] + [inst for inst, _ in _degenerate_instances()]
    dropped, outcomes = 0, set()
    for inst in pool:
        bis = all_bisectors(inst)
        want, got_outcomes = _fraction_used(inst, bis)
        assert used_bisectors(inst, bis) == want
        dropped += len(bis) - len(want)
        outcomes |= got_outcomes
    assert dropped > 0, "no line was ever dropped"
    assert outcomes == _OUTCOMES
    assert seen["dtypes"] == {_np.dtype(_np.int64), _np.dtype(object)} and seen["swept"] > 0


def test_windowed_used_bisectors_match_fraction_definition(monkeypatch):
    rng = random.Random(1_3101)
    seen = _watch_reduction(monkeypatch)
    pool = [(_rational_instance(rng), 1) for _ in range(20)] + _degenerate_instances()
    dropped, outcomes = 0, set()
    for inst, scale in pool:
        bis = all_bisectors(inst)
        everywhere = set(used_bisectors(inst, bis))
        for _ in range(4):
            x0, y0 = rng.randint(-9, 7), rng.randint(-9, 7)
            window = (x0, y0, x0 + rng.randint(1, 6), y0 + rng.randint(1, 6))
            window = tuple(v * scale for v in window)
            want, got_outcomes = _fraction_used(inst, bis, window)
            got = used_bisectors(inst, bis, window=window)
            assert got == want
            assert set(got) <= everywhere
            outcomes |= got_outcomes
            dropped += sum(
                b not in got and _crosses_open_window(b.line, window) for b in everywhere
            )
    assert dropped > 0, "the window never dropped a line kept on the whole line"
    assert outcomes == _OUTCOMES
    assert seen["dtypes"] == {_np.dtype(_np.int64), _np.dtype(object)} and seen["swept"] > 0


def _reductions(monkeypatch=None, **patch):
    """Kept lists of every pool instance, on the whole box and on four windows, under ``patch``."""
    rng = random.Random(1_3102)
    pool = [(_rational_instance(rng), 1) for _ in range(8)] + _degenerate_instances()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(arrangement, name, value)
        seen = _watch_reduction(mp)
        out = []
        for inst, scale in pool:
            bis = all_bisectors(inst)
            windows = [None] + [
                tuple(scale * v for v in (x, y, x + w, y + h))
                for x, y, w, h in [(-3, -2, 4, 5), (0, 0, 1, 1), (-6, 1, 3, 2), (1, -5, 6, 6)]
            ]
            out.append([used_bisectors(inst, bis, window=window) for window in windows])
    return out, seen["dtypes"]


def test_int64_and_python_int_reductions_agree():
    # with the int64 limit at 0 every value, small or scaled by 10^9, is a Python int
    narrow, narrow_dtypes = _reductions()
    wide, wide_dtypes = _reductions(_REDUCTION_LIMIT=0)
    assert narrow_dtypes == {_np.dtype(_np.int64), _np.dtype(object)}
    assert wide_dtypes == {_np.dtype(object)}
    assert wide == narrow


def test_reductions_do_not_depend_on_the_chunking():
    # a budget of one entry gives every chunk one half row: one block of one (line, pair)
    assert _reductions(_REDUCTION_CHUNK=1) == _reductions()


def test_reduction_sweeps_few_rows_on_the_n60_rung_windows(monkeypatch):
    # criterion 10's generator at n = 60, k = 3: the end counts settle every
    # (line, pair) row of the incumbent's windows, so the sweep runs on at
    # most 1% of them (it ran on none when this was written)
    pts = _rand_points(random.Random(1010), 63, 15)
    inst = Instance(pts[:60], pts[60:])
    windows = applications._optimizer_windows(inst, applications._incumbent(inst)[0])
    every = all_bisectors(inst)
    swept = _watch_reduction(monkeypatch)
    rows = 0
    for x0, y0, x1, y1 in windows:
        for b in every:
            a, bb, c = b.line.primitive_triple()
            sides = [a * x + bb * y - c for x in (x0, x1) for y in (y0, y1)]
            rows += len(b.edge_pairs) * (min(sides) < 0 < max(sides))
        used_bisectors(inst, every, window=(x0, y0, x1, y1))
    assert rows > 1000
    assert swept["swept"] <= rows // 100


def test_reduction_refuses_a_sweep_outside_its_end_counts(monkeypatch):
    # a 3 x 1 rectangle: each diagonal's bisector has one other corner nearer
    # than the pair far out at either end and none at the centre, so only the
    # sweep keeps it
    inst = _mk([(0, 0), (3, 0), (0, 1), (3, 1)], [(0, 0)])
    bis = all_bisectors(inst)
    seen = _watch_reduction(monkeypatch)
    assert used_bisectors(inst, bis) == bis and seen["swept"] == 2
    monkeypatch.setattr(arrangement, "_min_coverage", lambda always, less, greater, stop_at: -1)
    with pytest.raises(ContractViolation, match="outside its end counts"):
        used_bisectors(inst, bis)


def test_windowed_reduction_keeps_only_lines_crossing_the_open_window():
    inst = _mk([(0, 0), (2, 0), (4, 0), (0, 2)], [(0, 0)])
    bis = all_bisectors(inst)
    for window in [(0, 0, 1, 1), (1, -1, 3, 1), (-3, -3, 5, 5), (1, 1, 2, 2)]:
        got = used_bisectors(inst, bis, window=window)
        assert all(_crosses_open_window(b.line, window) for b in got)
    # x = 1 lies on a side of the second window, y = x touches its corner (1, 1)
    missing = {make_line(1, 0, 1), make_line(1, -1, 0)}
    assert missing <= {b.line for b in used_bisectors(inst, bis)}
    assert not {b.line for b in used_bisectors(inst, bis, window=(1, -1, 3, 1))} & missing


def test_k1_used_matches_delaunay_neighbors():
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.spatial import Delaunay

    def cocircular_or_collinear(pts):
        for q in combinations(pts, 4):
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = q
            rows = []
            for x, y in q:
                rows.append((x - dx, y - dy, (x - dx) ** 2 + (y - dy) ** 2))
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if det == 0:
                return True
        for q in combinations(pts, 3):
            (ax, ay), (bx, by), (cx, cy) = q
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
                return True
        return False

    rng = random.Random(2024)
    done = 0
    while done < 8:
        m = rng.randint(4, 8)
        pts: set[tuple[int, int]] = set()
        while len(pts) < m:
            pts.add((rng.randint(-9, 9), rng.randint(-9, 9)))
        pl = sorted(pts)
        if cocircular_or_collinear(pl):
            continue
        inst = _mk(pl, [(0, 0)])
        used = used_bisectors(inst, all_bisectors(inst))
        got = set()
        for b in used:
            for e1, e2 in b.edge_pairs:
                got.add(frozenset((e1.a, e2.a)))
        tri = Delaunay(np.array(pl, dtype=float))
        expect = set()
        for simplex in tri.simplices:
            for i, j in combinations(simplex, 2):
                expect.add(frozenset((int(i), int(j))))
        assert got == expect
        done += 1


def test_same_b_triples_share_at_most_one_point():
    rng = random.Random(321)
    for _ in range(10):
        inst = _random_instance(rng, n_max=6, k_max=2)
        same_b: dict[int, list] = {}
        for b in all_bisectors(inst):
            for e1, e2 in b.edge_pairs:
                if e1.b == e2.b:
                    same_b.setdefault(e1.b, []).append(b.line)
        for lines in same_b.values():
            distinct = sorted(set(lines), key=lambda l: l.primitive_triple())
            for trio in combinations(distinct, 3):
                pts = set()
                for l1, l2 in combinations(trio, 2):
                    p = line_intersection(l1, l2)
                    if p is not None:
                        pts.add((p.x, p.y))
                common = [
                    p
                    for p in pts
                    if all(l.side(Point(*p)) == 0 for l in trio)
                ]
                assert len(common) <= 1


# --- build_arrangement ------------------------------------------------------


def test_no_lines_single_cell():
    arr = build_arrangement([])
    assert arr.n_cells == 1
    assert list(arr.dual_edges()) == []
    assert arr.euler_characteristic() == 2


def test_two_parallel_lines_three_cells_path_dual():
    arr = build_arrangement([make_line(1, 0, 0), make_line(1, 0, 2)])
    assert arr.n_cells == 3
    deg = [0] * 3
    pairs = set()
    for c0, c1, _e in arr.dual_edges():
        pairs.add((c0, c1))
    for c0, c1 in pairs:
        deg[c0] += 1
        deg[c1] += 1
    assert sorted(deg) == [1, 1, 2]


def test_three_general_lines_seven_cells():
    lines = [make_line(1, 0, 0), make_line(0, 1, 0), make_line(1, 1, 3)]
    arr = build_arrangement(lines)
    assert arr.n_cells == 7
    assert arr.euler_characteristic() == 2


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        build_arrangement([make_line(1, 0, 0), make_line(2, 0, 0)])


def test_box_contains_required_points_with_margin():
    lines = [
        make_line(1, 0, 0),
        make_line(0, 1, 0),
        make_line(1, 1, 7),
        make_line(2, -1, 3),
    ]
    musts = [point(11, -5), point(Fraction(1, 3), Fraction(9, 2))]
    arr = build_arrangement(lines, must_contain=musts)
    x0, y0, x1, y1 = arr.box
    required = list(musts)
    for l1, l2 in combinations(lines, 2):
        p = line_intersection(l1, l2)
        if p is not None:
            required.append(p)
    for ln in lines:
        required.append(ln.some_point())
    for p in required:
        assert x0 + 1 <= p.x <= x1 - 1
        assert y0 + 1 <= p.y <= y1 - 1


def test_euler_and_convexity_on_random_instances():
    rng = random.Random(7101)
    for _ in range(10):
        inst = _random_instance(rng, n_max=5, k_max=3)
        used = used_bisectors(inst, all_bisectors(inst))
        lines = [b.line for b in used]
        anchors = [inst.anchor(e) for e in inst.edges()]
        arr = build_arrangement(lines, must_contain=anchors)
        assert arr.euler_characteristic() == 2
        for cid in range(arr.n_cells):
            poly = arr.cell_polygon(cid)
            assert poly.dim == 2
            assert poly.contains_interior(arr.cell_centroid(cid))


def test_dual_graph_edges_are_interior_and_symmetric():
    lines = [make_line(1, 0, 0), make_line(0, 1, 0), make_line(1, 1, 3)]
    arr = build_arrangement(lines)
    seen = set()
    for c0, c1, e in arr.dual_edges():
        assert c0 < c1
        assert not arr.is_boundary_edge(e)
        seen.add((c0, c1, e))
        assert (c1, e) in arr.cell_neighbors(c0)
        assert (c0, e) in arr.cell_neighbors(c1)
    assert len(seen) == len(set((a, b) for a, b, _ in seen))


# --- windows ----------------------------------------------------------------


def _window_vertices(lines, window):
    """Every crossing of the lines and the window sides inside the closed window."""
    x0, y0, x1, y1 = window
    sides = [make_line(1, 0, x0), make_line(1, 0, x1), make_line(0, 1, y0), make_line(0, 1, y1)]
    pts = set()
    for l1, l2 in combinations(list(lines) + sides, 2):
        p = line_intersection(l1, l2)
        if p is not None and x0 <= p.x <= x1 and y0 <= p.y <= y1:
            pts.add(p)
    return pts


def test_window_is_the_box_and_drops_outside_crossings():
    window = (-5, -5, 7, 7)  # x + y = 3 and 2x + y = -2 cross at (-5, 8), outside
    arr = build_arrangement(_GENERAL_LINES, window=window)
    assert arr.box == window
    assert {arr.vertex_point(v) for v in range(arr.n_vertices)} == _window_vertices(
        _GENERAL_LINES, window
    )
    assert point(-5, 8) not in _window_vertices(_GENERAL_LINES, window)
    assert arr.euler_characteristic() == 2
    for cid in range(arr.n_cells):
        assert arr.locate(arr.cell_centroid(cid)) == FaceRef(2, cid)


def test_window_crossings_on_its_sides_and_corners():
    # x = 0 and y = 0 cross at the corner (0, 0); x + y = 2 and x - y = 0
    # cross at (1, 1) on the side x = 1 of the second window
    lines = [make_line(1, 1, 2), make_line(1, -1, 0), make_line(0, 1, 1)]
    for window in [(0, 0, 3, 3), (-1, 0, 1, 3)]:
        arr = build_arrangement(lines, window=window)
        assert {arr.vertex_point(v) for v in range(arr.n_vertices)} == _window_vertices(lines, window)
        assert arr.euler_characteristic() == 2


def test_window_no_line_crosses_is_one_cell():
    arr = build_arrangement([], window=(2, 3, 4, 5))
    assert arr.box == (2, 3, 4, 5)
    assert arr.n_cells == 1 and arr.n_vertices == 4


def test_window_refuses_bad_boxes_and_lines():
    with pytest.raises(ValueError):
        build_arrangement([make_line(1, 0, 0)], window=(0, -1, 1, 1))  # a side is a line
    with pytest.raises(ValueError):
        build_arrangement([], window=(0, 0, 0, 1))
    with pytest.raises(ValueError):
        build_arrangement([], must_contain=[point(0, 0)], window=(-1, -1, 1, 1))
    for line in [make_line(1, 0, 5), make_line(1, 1, 2)]:  # misses, touches a corner
        with pytest.raises(botmatch.geom.ContractViolation):
            build_arrangement([line], window=(0, 0, 1, 1))


# --- locate -----------------------------------------------------------------


def _tiny_arrangement():
    lines = [make_line(1, 0, 0), make_line(0, 1, 0), make_line(1, 1, 3)]
    return lines, build_arrangement(lines)


def test_locate_cell_edge_vertex():
    lines, arr = _tiny_arrangement()
    ref = arr.locate(point(0, 0))
    assert ref.dim == 0
    assert arr.vertex_point(ref.index) == point(0, 0)

    ref = arr.locate(point(0, Fraction(1, 2)))
    assert ref.dim == 1
    u, v = arr.edge_endpoints(ref.index)
    pu, pv = arr.vertex_point(u), arr.vertex_point(v)
    assert pu.x == pv.x == 0

    ref = arr.locate(point(Fraction(1, 2), Fraction(1, 2)))
    assert ref.dim == 2
    assert arr.cell_polygon(ref.index).contains_interior(
        point(Fraction(1, 2), Fraction(1, 2))
    )


def test_locate_every_cell_centroid_roundtrip():
    rng = random.Random(99)
    for _ in range(5):
        inst = _random_instance(rng, n_max=5, k_max=2)
        used = used_bisectors(inst, all_bisectors(inst))
        arr = build_arrangement([b.line for b in used])
        for cid in range(arr.n_cells):
            ref = arr.locate(arr.cell_centroid(cid))
            assert ref == FaceRef(2, cid)


def test_locate_outside_box_raises():
    _, arr = _tiny_arrangement()
    x0, y0, x1, y1 = arr.box
    with pytest.raises(OutsideBox):
        arr.locate(point(x1 + 1, 0))
    with pytest.raises(OutsideBox):
        arr.locate(point(0, y0 - Fraction(1, 7)))


def test_face_samples_locate_to_their_face(monkeypatch):
    # box corners and box-side edges included
    for arr in [_tiny_arrangement()[1], *_varied_arrangements(monkeypatch)]:
        for ref in arr.iter_faces():
            assert arr.locate(arr.face_sample(ref)) == ref


# --- integer widths ---------------------------------------------------------


def test_huge_coefficients_use_exact_fallback():
    big = 10**8
    lines = [
        make_line(1, 0, big),
        make_line(0, 1, big + 1),
        make_line(big, big + 3, 1),
    ]
    arr = build_arrangement(lines)
    assert arr.euler_characteristic() == 2
    assert arr.n_cells == 7


def _build_python_ints(monkeypatch, lines, must_contain=(), window=None):
    """The same arrangement with every coordinate held as a Python int."""
    with monkeypatch.context() as m:
        m.setattr(arrangement, "_COEF_LIMIT", 0)
        return build_arrangement(lines, must_contain=must_contain, window=window)


def _same_arrangement(a, b):
    assert a.box == b.box
    assert a.n_vertices == b.n_vertices
    assert [a.vertex_triple(v) for v in range(a.n_vertices)] == [
        b.vertex_triple(v) for v in range(b.n_vertices)
    ]
    assert [a.edge_endpoints(e) for e in range(a.n_edges)] == [
        b.edge_endpoints(e) for e in range(b.n_edges)
    ]
    assert a.n_cells == b.n_cells
    assert a.cell_bounds_float().tolist() == b.cell_bounds_float().tolist()
    for c in range(a.n_cells):
        assert a.cell_cycle(c) == b.cell_cycle(c)
        assert a.cell_neighbors(c) == b.cell_neighbors(c)
        assert a.cell_polygon(c) == b.cell_polygon(c)


_GENERAL_LINES = [
    make_line(1, 0, 0),
    make_line(0, 1, 0),
    make_line(1, 1, 3),
    make_line(1, -1, 1),
    make_line(2, 1, -2),
]


@pytest.mark.parametrize(
    "must_contain", [(), (point(10**19, 5),)], ids=["small-box", "box-past-int64"]
)
def test_int64_and_python_int_geometry_agree(monkeypatch, must_contain):
    # Small coefficients run on int64 until the box outgrows it; then the
    # vertices move to Python ints while the line arrays stayed int64.
    arr = build_arrangement(_GENERAL_LINES, must_contain=must_contain)
    wide = _build_python_ints(monkeypatch, _GENERAL_LINES, must_contain)
    assert arr._uniq.dtype == (object if must_contain else "int64")
    assert wide._uniq.dtype == object
    _same_arrangement(arr, wide)
    assert arr.euler_characteristic() == 2
    for p in must_contain:
        assert arr.locate(p).dim == 2
        assert arr.box[2] - 1 >= p.x


@pytest.mark.parametrize(
    "window", [(-5, -5, 7, 7), (-5, -5, 10**19, 7)], ids=["small-window", "box-past-int64"]
)
def test_int64_and_python_int_geometry_agree_on_a_window(monkeypatch, window):
    arr = build_arrangement(_GENERAL_LINES, window=window)
    wide = _build_python_ints(monkeypatch, _GENERAL_LINES, window=window)
    assert arr._uniq.dtype == (object if window[2] > 10**18 else "int64")
    assert wide._uniq.dtype == object
    _same_arrangement(arr, wide)
    assert arr.box == window and arr.euler_characteristic() == 2
    assert {arr.vertex_point(v) for v in range(arr.n_vertices)} == _window_vertices(
        _GENERAL_LINES, window
    )
    assert arr.locate(point(window[2] - 1, 6)).dim == 2


def _assert_face_samples_equal_per_face(arr):
    samples = arr.face_samples()
    assert samples is arr.face_samples() and not samples.flags.writeable
    refs = list(arr.iter_faces())
    assert samples.shape == (len(refs), 3)
    want = [reference_sample(arr, r) for r in refs]
    assert [tuple(row) for row in samples.tolist()] == want
    assert [arr.face_sample_triple(r) for r in refs] == want
    return samples


@pytest.mark.parametrize(
    "must_contain, dtype",
    [((), "int64"), ((point(10**12, -(10**12)),), object), ((point(10**19, 5),), object)],
    ids=["small-box", "samples-past-int64", "box-past-int64"],
)
def test_face_samples_equal_face_sample_triple(monkeypatch, must_contain, dtype):
    # A box of 10^12 keeps the vertices in int64 while the sample arithmetic
    # needs Python ints; past 10^19 the vertices are Python ints too.
    arr = build_arrangement(_GENERAL_LINES, must_contain=must_contain)
    assert _assert_face_samples_equal_per_face(arr).dtype == dtype
    wide = _build_python_ints(monkeypatch, _GENERAL_LINES, must_contain)
    assert _assert_face_samples_equal_per_face(wide).tolist() == arr.face_samples().tolist()
    with monkeypatch.context() as m:
        m.setattr(arrangement, "_SAMPLE_LIMIT", 0)
        # samples are computed once per arrangement, so build a new one
        fresh = build_arrangement(_GENERAL_LINES, must_contain=must_contain)
        assert _assert_face_samples_equal_per_face(fresh).dtype == object
        assert fresh.face_samples().tolist() == arr.face_samples().tolist()


@pytest.mark.parametrize(
    "must_contain", [(), (point(10**12, -(10**12)),)], ids=["small-box", "samples-past-int64"]
)
def test_cell_samples_come_without_the_edge_and_vertex_rows(must_contain):
    arr = build_arrangement(_GENERAL_LINES, must_contain=must_contain)
    cells = [arr.face_sample_triple(FaceRef(2, c)) for c in range(arr.n_cells)]
    assert "_samples" not in vars(arr)
    assert cells == [reference_sample(arr, FaceRef(2, c)) for c in range(arr.n_cells)]
    block = arr.cell_samples()
    assert not block.flags.writeable
    samples = arr.face_samples()
    assert block.dtype == samples.dtype
    assert [tuple(row) for row in samples[: arr.n_cells].tolist()] == cells
    # once the full array is built, the cell rows are a view of it, not a copy
    view = arr.cell_samples()
    assert _np.shares_memory(view, samples) and not _np.shares_memory(view, block)
    assert view.base is samples and len(view) == arr.n_cells
    assert view.dtype == block.dtype and not view.flags.writeable
    assert view.tolist() == block.tolist()
    assert arr.face_sample_triple(FaceRef(2, arr.n_cells - 1)) == cells[-1]


def test_face_samples_equal_face_sample_triple_on_random_and_degenerate_instances():
    rng = random.Random(4132)
    instances = [_random_instance(rng) for _ in range(6)]
    instances.append(_mk([(x, 0) for x in range(5)], [(0, 0), (1, 0), (3, 0)]))
    instances.append(_mk([(x, y) for x in range(0, 6, 2) for y in range(0, 4, 2)], [(0, 0), (1, 0), (0, 1)]))
    for inst in instances:
        _assert_face_samples_equal_per_face(build_arrangement([b.line for b in all_bisectors(inst)]))


# --- one crossing routine, strictly convex cells, pinned arrays -----------------


_LATTICE_INST = _mk([(x, y) for x in range(3) for y in range(3)], [(0, 0), (1, 0), (0, 1)])
_COLLINEAR_INST = _mk([(x, 0) for x in range(5)], [(0, 0), (1, 0), (3, 0)])


def _windowed(inst, window):
    """The arrangement of the bisectors that cross the open window, on it."""
    return build_arrangement(
        [b.line for b in used_bisectors(inst, all_bisectors(inst), window=window)], window=window
    )


def _family_arrangements(monkeypatch):
    """Whole boxes, windows with crossings on sides and corners, Python-int boxes."""
    rng = random.Random(1_5001)
    built = [build_arrangement([b.line for b in all_bisectors(_random_instance(rng))]) for _ in range(4)]
    built += [
        build_arrangement([b.line for b in all_bisectors(inst)]) for inst in (_COLLINEAR_INST, _LATTICE_INST)
    ]
    # lattice bisectors cross at integer and half-integer points: on these
    # windows some crossings fall on a side, some on a corner
    built += [_windowed(_LATTICE_INST, w) for w in [(-1, -1, 1, 1), (0, 0, 2, 1), (-2, -1, 1, 2)]]
    corner_lines = [make_line(1, 1, 2), make_line(1, -1, 0), make_line(0, 1, 1)]
    built += [build_arrangement(corner_lines, window=w) for w in [(0, 0, 3, 3), (-1, 0, 1, 3)]]
    built.append(build_arrangement(_GENERAL_LINES, must_contain=[point(10**19, 5)]))
    built.append(build_arrangement(_GENERAL_LINES, window=(-5, -5, 10**19, 7)))
    built.append(_build_python_ints(monkeypatch, [b.line for b in all_bisectors(_random_instance(rng))]))
    built.append(_build_python_ints(monkeypatch, corner_lines, window=(0, 0, 3, 3)))
    assert {a._uniq.dtype for a in built} == {_np.dtype("int64"), _np.dtype(object)}
    return built


def test_vertices_are_the_fraction_crossings_in_the_closed_box(monkeypatch):
    at_corner = 0
    for arr in _family_arrangements(monkeypatch):
        x0, y0, x1, y1 = arr.box
        want = _window_vertices(arr.lines, arr.box)
        assert {arr.vertex_point(v) for v in range(arr.n_vertices)} == want
        assert arr.n_vertices == len(want)
        sides = [make_line(1, 0, x0), make_line(1, 0, x1), make_line(0, 1, y0), make_line(0, 1, y1)]
        for ln in arr.lines:
            ends = {line_intersection(ln, side) for side in sides} & want
            assert len(ends) == 2  # each input line meets the box in a chord
            at_corner += any(p.x in (x0, x1) and p.y in (y0, y1) for p in ends)
    assert at_corner  # some line ends at a corner


def test_bounded_cells_turn_strictly_at_every_vertex(monkeypatch):
    for arr in _family_arrangements(monkeypatch):
        for cid in range(arr.n_cells):
            ring = [arr.vertex_triple(v) for v in arr.cell_cycle(cid)]
            assert len(ring) >= 3
            assert all(orientation(ring[i - 2], ring[i - 1], ring[i]) > 0 for i in range(len(ring)))


_DCEL_FIELDS = (
    "_uniq", "_eu", "_ev", "_eline", "_nxt", "_face", "_cell_start_he", "_cell_of_face",
    "_adj_ptr", "_adj_nbr", "_adj_eid",
)


def _dcel_sha256(arr):
    h = hashlib.sha256(repr((arr.box, str(arr._uniq.dtype))).encode())
    for name in _DCEL_FIELDS:
        h.update(repr((name, getattr(arr, name).tolist())).encode())
    return h.hexdigest()


# sha256 of the DCEL arrays on fixed inputs: any rewrite of `_geometry` or
# `_assemble` must leave every array, and the int64 or Python-int width, as is
DCEL_GOLDEN = {
    "int64-whole-box": "3d7122adc53f7dc875a7162b92d2e8b862efa0476831a33ba20abb4d743907fa",
    "window": "aeb8c2c77f26fc822770427d151e270320ed68b95188f4a5cf30967fe0de7de4",
    "box-past-int64": "1e1bf9394a85e9bff21d4abbf89e417b7137146cc661604fc3ad62609949e91a",
    "python-ints": "bb2a82bbe4358b4ae959a6ae020b96862432c12186371cbd4c32d9de8b115c9d",
}


def _pinned_arrangement(monkeypatch, name):
    inst = _mk([(0, 0), (3, 1), (1, 4), (-2, 2), (4, -1)], [(0, 0), (1, 1), (2, -1)])
    lines = [b.line for b in all_bisectors(inst)]
    if name == "int64-whole-box":
        return build_arrangement(lines)
    if name == "window":
        return _windowed(_LATTICE_INST, (-2, -1, 1, 2))
    if name == "box-past-int64":
        return build_arrangement(_GENERAL_LINES, must_contain=[point(10**19, 5)])
    return _build_python_ints(monkeypatch, lines)


@pytest.mark.parametrize("name", sorted(DCEL_GOLDEN))
def test_arrangement_arrays_are_pinned(monkeypatch, name):
    arr = _pinned_arrangement(monkeypatch, name)
    assert arr._uniq.dtype == (object if name in ("box-past-int64", "python-ints") else "int64")
    assert _dcel_sha256(arr) == DCEL_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DCEL_GOLDEN))
def test_bulk_views_are_read_only_and_share_the_arrangement_memory(monkeypatch, name):
    arr = _pinned_arrangement(monkeypatch, name)
    ptr, nbr, eid = arr.dual_csr()
    eu, ev = arr.edge_ends()
    views = {"_adj_ptr": ptr, "_adj_nbr": nbr, "_adj_eid": eid, "_eu": eu, "_ev": ev}
    views["_uniq"] = arr.vertex_triples()
    for field, view in views.items():
        own = getattr(arr, field)
        assert _np.shares_memory(view, own) and view.shape == own.shape and view.dtype == own.dtype
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = view[0]
    assert [tuple(row) for row in views["_uniq"].tolist()] == [
        arr.vertex_triple(v) for v in range(arr.n_vertices)
    ]
    assert list(zip(eu.tolist(), ev.tolist())) == [arr.edge_endpoints(e) for e in range(arr.n_edges)]
    for c in range(arr.n_cells):
        a, b = ptr[c : c + 2].tolist()
        assert arr.cell_neighbors(c) == list(zip(nbr[a:b].tolist(), eid[a:b].tolist()))
        for n, e in arr.cell_neighbors(c):
            assert arr.face_cells(FaceRef(1, e)) == sorted((c, n))
    interior = set()
    for e in range(arr.n_edges):
        cells = arr.face_cells(FaceRef(1, e))
        if len(cells) == 2:
            interior.add((*cells, e))
    dual = list(arr.dual_edges())
    assert len(dual) == len(interior) and set(dual) == interior


def _canonical_cell_vertices(arr, c):
    return canonical_convex([arr.vertex_point(v) for v in arr.cell_cycle(c)]).vertices


def test_cell_polygon_equals_canonical_convex_of_cycle(monkeypatch):
    rng = random.Random(413)
    for _ in range(8):
        inst = _random_instance(rng)
        lines = [b.line for b in used_bisectors(inst, all_bisectors(inst))]
        if not lines:
            continue
        narrow = build_arrangement(lines)
        wide = _build_python_ints(monkeypatch, lines)
        assert narrow._uniq.dtype == "int64" and wide._uniq.dtype == object
        _same_arrangement(narrow, wide)
        for c in range(narrow.n_cells):
            assert narrow.cell_polygon(c).vertices == _canonical_cell_vertices(narrow, c)


def _assert_edges_follow_line_direction(arr):
    # Vertices along each line are in exact parameter order, so every edge
    # runs from start to end along its line's direction: d . (end - start) > 0.
    for e in range(arr.n_edges):
        dx, dy = arr.dirs_all[arr.edge_line(e)]
        u, v = arr.edge_endpoints(e)
        xu, yu, wu = arr.vertex_triple(u)
        xv, yv, wv = arr.vertex_triple(v)
        assert dx * (xv * wu - xu * wv) + dy * (yv * wu - yu * wv) > 0


def test_edges_follow_line_direction_exactly(monkeypatch):
    rng = random.Random(4131)
    for _ in range(6):
        inst = _random_instance(rng)
        lines = [b.line for b in all_bisectors(inst)]
        _assert_edges_follow_line_direction(build_arrangement(lines))
        _assert_edges_follow_line_direction(_build_python_ints(monkeypatch, lines))
    # Float ties: x = (M - j)/M and x = (M + 1 - j)/(M + 1) differ by about
    # j/M**2, far below one ulp, so their crossings with y = 0 get equal float
    # keys. Each pair is listed larger x first, against the order along
    # y = 0 (direction +x), so only the exact repair can order it.
    M = 10**12
    near = [make_line(0, 1, 0), make_line(M, -1, 0)]
    for j in (1, 2, 3):
        assert (M - j) / M == (M + 1 - j) / (M + 1)
        near += [make_line(M + 1, 0, M + 1 - j), make_line(M, 0, M - j)]
    arr = build_arrangement(near)
    assert arr._uniq.dtype == object
    assert arr.euler_characteristic() == 2
    _assert_edges_follow_line_direction(arr)


def test_library_reads_no_private_arrangement_field():
    # Every module but arrangement.py reaches the DCEL through public methods.
    # The names come from a built arrangement, so new private fields count too.
    arr = build_arrangement([make_line(1, 0, 0), make_line(0, 1, 0)])
    private = {name for name in vars(arr) if name.startswith("_")}
    assert {"_eline", "_face", "_adj_ptr", "_cell_of_face"} <= private
    hits = []
    for path in sorted(pathlib.Path(botmatch.__file__).parent.glob("*.py")):
        if path.name == "arrangement.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                hits.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not hits, hits


# --- face cycles --------------------------------------------------------------


def _faces_by_walk(nxt):
    """Reference face numbering: walk each ``nxt`` cycle from its first half-edge.

    This is the Python loop that ``_assemble`` ran before it numbered the
    cycles by pointer jumping.
    """
    nxt_list = nxt.tolist()
    face_list = [-1] * len(nxt_list)
    starts: list[int] = []
    fid = 0
    for h0 in range(len(nxt_list)):
        if face_list[h0] >= 0:
            continue
        h = h0
        while face_list[h] < 0:
            face_list[h] = fid
            h = nxt_list[h]
        assert h == h0, "half-edge cycles must close at their start"
        starts.append(h0)
        fid += 1
    return face_list, starts


def _assert_faces_match_walk(arr):
    face, starts = _faces_by_walk(arr._nxt)
    assert arr._face.tolist() == face
    cof = arr._cell_of_face.tolist()
    assert arr._cell_start_he.tolist() == [h for f, h in enumerate(starts) if cof[f] >= 0]


def _varied_arrangements(monkeypatch):
    """Empty, parallel, concurrent, windowed, past-int64, Python-int and lattice builds."""
    rng = random.Random(1_3201)
    built = [
        build_arrangement([]),
        build_arrangement([make_line(1, 0, 0), make_line(1, 0, 2)]),  # parallel
        # four lines through one point, plus one more
        build_arrangement(
            [make_line(1, 0, 0), make_line(0, 1, 0), make_line(1, 1, 0), make_line(1, -1, 0), make_line(1, 2, 3)]
        ),
        build_arrangement(_GENERAL_LINES, window=(-5, -5, 7, 7)),
        build_arrangement(_GENERAL_LINES, must_contain=[point(10**19, 5)]),
    ]
    for _ in range(4):
        lines = [b.line for b in all_bisectors(_random_instance(rng))]
        built.append(build_arrangement(lines))
        built.append(_build_python_ints(monkeypatch, lines))
    lattice = _mk([(x, y) for x in range(3) for y in range(3)], [(0, 0), (1, 0), (0, 1)])
    built.append(build_arrangement([b.line for b in all_bisectors(lattice)]))
    assert {a._uniq.dtype for a in built} == {_np.dtype("int64"), _np.dtype(object)}
    return built


def test_face_cycles_match_the_walk(monkeypatch):
    for arr in _varied_arrangements(monkeypatch):
        _assert_faces_match_walk(arr)
