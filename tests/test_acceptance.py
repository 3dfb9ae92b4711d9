"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible even under captured output) so a full run reads as a checklist.
Sizes, sample counts and time budgets are part of the criteria; the seeds
are fixed so every run checks the identical workload.
"""

import contextlib
import functools
import random
import time
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from botmatch import (
    CandidateGraph,
    EdgeRef,
    Instance,
    Point,
    all_bisectors,
    bottleneck_matching,
    bottleneck_path,
    build_arrangement,
    build_diagram,
    convex_polygon,
    cover_radius,
    eval_E,
    grid_cover_radius,
    label_cells_incremental,
    label_cells_recompute,
    max_matching,
    optimal_translation,
    oracle_optimal_translation,
    point,
    prune_candidates,
    squared_edge_length,
    used_bisectors,
)
from botmatch.matching import cross_bisector
from botmatch.oracle import brute_force_E, brute_force_lex, brute_force_lex_matchings
from path_reference import unreduced

# -- reporting ---------------------------------------------------------------


def _say(capsys, num, name, verdict, dt):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {name}: {verdict} ({dt:.1f}s)", flush=True)


@contextlib.contextmanager
def _verdict(capsys, num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _say(capsys, num, name, "FAIL", time.monotonic() - start)
        raise
    _say(capsys, num, name, "PASS", time.monotonic() - start)


# -- shared generators ---------------------------------------------------------


def _pts(coords):
    return tuple(point(x, y) for x, y in coords)


def _rand_points(rng, count, span):
    seen = set()
    while len(seen) < count:
        seen.add((rng.randint(-span, span), rng.randint(-span, span)))
    return _pts(sorted(seen))


def _rand_instance(rng, n_lo, n_hi, k_hi, span):
    n = rng.randint(n_lo, n_hi)
    k = rng.randint(1, min(k_hi, n))
    pts = _rand_points(rng, n + k, span)
    return Instance(pts[:n], pts[n:])


def _interior_samples(arr, cid, count):
    """``count`` distinct interior points of a cell, denominators kept small.

    The arrangement's own sample triple avoids the lcm blowup a vertex
    centroid would have; the rest sit strictly between it and one vertex.
    """
    s = arr.cell_centroid(cid)
    out = [s]
    verts = arr.cell_polygon(cid).vertices
    j = 1
    while len(out) < count:
        v = verts[(j - 1) % len(verts)]
        th = Fraction(1, 3 + j)
        out.append(Point(s.x + th * (v.x - s.x), s.y + th * (v.y - s.y)))
        j += 1
    return out


def _value_at(inst, mu, t):
    return max(squared_edge_length(inst, e, t) for e in mu)


@functools.lru_cache(maxsize=1)
def _shared_instances():
    """The 50 instances criteria 2, 3 and 8 agree to share."""
    rng = random.Random(50_822)
    return tuple(_rand_instance(rng, 2, 8, 3, 5) for _ in range(50))


@functools.lru_cache(maxsize=1)
def _shared_diagrams():
    return tuple(build_diagram(inst) for inst in _shared_instances())


@functools.lru_cache(maxsize=1)
def _label_validity_elapsed():
    """Criterion 2 work item, reused verbatim by criterion 8.

    Returns the wall time spent; any mismatch raises inside.
    """
    start = time.monotonic()
    for inst, diag in zip(_shared_instances(), _shared_diagrams()):
        arr = diag.arrangement
        for cid in range(arr.n_cells):
            label = diag.cells[cid]
            for t in _interior_samples(arr, cid, 5):
                want, _ = brute_force_E(inst, t)
                assert _value_at(inst, label.matching, t) == want, (
                    f"label value off at {t} (cell {cid})"
                )
    return time.monotonic() - start


# -- criteria ------------------------------------------------------------------


def test_criterion_01_voronoi_degeneration(capsys):
    with _verdict(capsys, 1, "voronoi degeneration at k=1"):
        rng = random.Random(101)
        start = time.monotonic()
        for _ in range(20):
            n = rng.randint(2, 10)
            pts = _rand_points(rng, n + 1, 8)
            inst = Instance(pts[:n], pts[n:])
            diag = build_diagram(inst)
            arr = diag.arrangement
            b0 = inst.B[0]
            for cid in range(arr.n_cells):
                s = arr.cell_centroid(cid)
                placed = Point(b0.x + s.x, b0.y + s.y)
                dists = sorted(
                    (placed.dist2(a), i) for i, a in enumerate(inst.A)
                )
                assert len(dists) == 1 or dists[0][0] < dists[1][0], (
                    "cell sample on a bisector"
                )
                assert diag.cells[cid].matching[0].a == dists[0][1]
            for _ in range(100):
                d = rng.randint(1, 9)
                t = Point(
                    Fraction(rng.randint(-9 * d, 9 * d), d),
                    Fraction(rng.randint(-9 * d, 9 * d), d),
                )
                placed = Point(b0.x + t.x, b0.y + t.y)
                nn = min(placed.dist2(a) for a in inst.A)
                assert eval_E(inst, t)[0] == nn
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"criterion 1 budget blown: {elapsed:.1f}s"


def test_criterion_02_label_validity(capsys):
    with _verdict(capsys, 2, "cell labels match brute force"):
        elapsed = _label_validity_elapsed()
        assert elapsed < 120.0, f"criterion 2 budget blown: {elapsed:.1f}s"


def test_criterion_03_labeler_equivalence(capsys):
    with _verdict(capsys, 3, "incremental equals recompute"):
        start = time.monotonic()
        for inst, diag in zip(_shared_instances(), _shared_diagrams()):
            arr, bis = diag.arrangement, diag.bisectors
            inc = label_cells_incremental(inst, arr, bis)
            rec = label_cells_recompute(inst, arr, bis)
            for cid in range(arr.n_cells):
                c = arr.cell_centroid(cid)
                assert _value_at(inst, inc.cells[cid].matching, c) == _value_at(
                    inst, rec.cells[cid].matching, c
                )
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 3 budget blown: {elapsed:.1f}s"


def test_criterion_04_lex_validity(capsys):
    with _verdict(capsys, 4, "lex labels match brute force"):
        rng = random.Random(404)
        instances = [_rand_instance(rng, 2, 6, 3, 4) for _ in range(25)]
        # ties in open cells are rare by chance; this one has three optima
        # in every cell (three matchings using the same diff vectors)
        instances.append(
            Instance(
                _pts([(5, 5), (6, 4), (6, 5), (20, 20)]),
                _pts([(0, 0), (1, 0), (0, 1)]),
            )
        )
        ties_seen = 0
        for inst in instances:
            diag = build_diagram(inst, lex=True)
            arr = diag.arrangement
            for ref, lex in diag.faces.items():
                x, y, w = arr.face_sample_triple(ref)
                t = Point(Fraction(x, w), Fraction(y, w))
                assert lex.cost_vector == brute_force_lex(inst, t), (
                    f"lex vector off at {t} ({ref})"
                )
                if ref.dim != 2:
                    continue
                vec, witnesses = brute_force_lex_matchings(inst, t)
                if len(witnesses) > 1:
                    ties_seen += 1
                    subsets = {frozenset(e.a for e in mu) for mu in witnesses}
                    assert len(subsets) == 1, (
                        f"lex optima with distinct matched subsets at {t}"
                    )
        assert ties_seen > 0, "tie clause never exercised"


def test_criterion_05_optimal_translation(capsys):
    with _verdict(capsys, 5, "optimal translation equals oracle"):
        inst = Instance(_pts([(0, 0), (2, 0)]), _pts([(0, 0), (3, 0)]))
        t, mu, val = optimal_translation(inst)
        assert val == Fraction(1, 4)
        assert t == point(Fraction(-1, 2), 0)

        rng = random.Random(505)
        for _ in range(50):
            inst = _rand_instance(rng, 2, 6, 3, 5)
            t, mu, val = optimal_translation(inst)
            _t_oracle, val_oracle = oracle_optimal_translation(inst)
            assert val == val_oracle
            for _ in range(1000):
                d = rng.randint(1, 6)
                s = Point(
                    Fraction(rng.randint(-10 * d, 10 * d), d),
                    Fraction(rng.randint(-10 * d, 10 * d), d),
                )
                assert val <= eval_E(inst, s)[0]


def test_criterion_06_bottleneck_path(capsys):
    with _verdict(capsys, 6, "bottleneck path reduced == full"):
        inst = Instance(_pts([(0, 0), (10, 0)]), _pts([(0, 0)]))
        res = bottleneck_path(inst, point(0, 0), point(10, 0))
        assert res.value == 25

        rng = random.Random(606)
        for _ in range(25):
            inst = _rand_instance(rng, 2, 6, 2, 5)
            t0 = point(rng.randint(-8, 8), rng.randint(-8, 8))
            t1 = point(rng.randint(-8, 8), rng.randint(-8, 8))
            reduced = bottleneck_path(inst, t0, t1)
            full = unreduced(bottleneck_path, inst, t0, t1)
            assert reduced.value == full.value
            e0, e1 = eval_E(inst, t0)[0], eval_E(inst, t1)[0]
            assert reduced.value >= max(e0, e1)
            straight = max(
                eval_E(
                    inst,
                    Point(
                        t0.x + Fraction(i, 100) * (t1.x - t0.x),
                        t0.y + Fraction(i, 100) * (t1.y - t0.y),
                    ),
                )[0]
                for i in range(101)
            )
            assert reduced.value <= straight


def test_criterion_07_cover_radius(capsys):
    with _verdict(capsys, 7, "cover radius bounds grid oracle"):
        inst = Instance(_pts([(0, 0)]), _pts([(0, 0)]))
        square = convex_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        res = cover_radius(inst, square)
        assert res.value == 2

        rng = random.Random(707)
        done = 0
        while done < 20:
            inst = _rand_instance(rng, 3, 6, 2, 5)
            cx, cy = rng.randint(-2, 2), rng.randint(-2, 2)
            h = rng.randint(3, 6)
            Q = convex_polygon(
                [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]
            )
            res = cover_radius(inst, Q)
            if not res or res.value == 0:
                continue  # erosion empty or perfect cover: gap undefined
            done += 1
            g8 = grid_cover_radius(inst, Q, 8)
            g16 = grid_cover_radius(inst, Q, 16)
            g32 = grid_cover_radius(inst, Q, 32)
            assert g8 <= g16 <= g32 <= res.value
            assert res.value - g32 < Fraction(1, 10) * res.value, (
                f"grid gap above 10%: {float(g32)} vs {float(res.value)}"
            )


def test_criterion_08_reduction_soundness(capsys):
    with _verdict(capsys, 8, "bisector reduction is sound"):
        for inst, diag in zip(_shared_instances(), _shared_diagrams()):
            every = all_bisectors(inst)
            assert all(b in every for b in diag.bisectors)

        # collinear triple: the outer pair's bisector separates nothing
        inst = Instance(_pts([(0, 0), (10, 0), (20, 0)]), _pts([(0, 0)]))
        every = all_bisectors(inst)
        kept = used_bisectors(inst, every)
        pair_of = {
            frozenset((e1.a, e2.a)): b for b in every for e1, e2 in b.edge_pairs
        }
        assert pair_of[frozenset((0, 1))] in kept
        assert pair_of[frozenset((1, 2))] in kept
        assert pair_of[frozenset((0, 2))] not in kept

        # the labeling the reduced arrangement carries stays brute-force valid
        _label_validity_elapsed()


def _rand_rank_graph(rng):
    k = rng.randint(1, 5)
    n = rng.randint(k, k + 4)
    perm = rng.sample(range(n), k)
    edges = {EdgeRef(perm[b], b) for b in range(k)}
    for b in range(k):
        want = rng.randint(k, n)
        pool = list(range(n))
        rng.shuffle(pool)
        for a in pool:
            if sum(1 for e in edges if e.b == b) >= want:
                break
            edges.add(EdgeRef(a, b))
    order = rng.sample(sorted(edges), len(edges))
    return CandidateGraph.from_ranks(k, {e: r + 1 for r, e in enumerate(order)})


def _referee_matching_size(G, cap):
    rows, cols = [], []
    for e in G.edges():
        if G.w(e) <= cap:
            rows.append(e.b)
            cols.append(e.a)
    width = max(cols) + 1
    m = csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(G.k, width)
    )
    return int((maximum_bipartite_matching(m, perm_type="column") != -1).sum())


def test_criterion_09_matching_engine(capsys):
    with _verdict(capsys, 9, "matching engine self-checks and swaps"):
        # the engine asserts feasibility monotonicity inside every binary
        # search and re-searches for augmenting paths after every maximum
        # matching; referee both independently on synthetic rank graphs
        rng = random.Random(909)
        for _ in range(200):
            G = _rand_rank_graph(rng)
            G.check_invariants()
            sizes = [len(max_matching(G, cap)) for cap in range(1, G.rank_count + 1)]
            assert all(x <= y for x, y in zip(sizes, sizes[1:]))
            mu, r = bottleneck_matching(G)
            assert len(mu) == G.k and sizes[r - 1] == G.k
            assert r == 1 or sizes[r - 2] < G.k
            for cap in {1, r, G.rank_count}:
                assert sizes[cap - 1] == _referee_matching_size(G, cap)

        # random dual-graph walks: carried state vs from-scratch recompute
        steps = 0
        while steps < 1000:
            inst = _rand_instance(rng, 2, 7, 3, 5)
            bis = used_bisectors(inst, all_bisectors(inst))
            if not bis:
                continue
            arr = build_arrangement([b.line for b in bis])
            cid = rng.randrange(arr.n_cells)
            G = prune_candidates(inst, arr.cell_centroid(cid))
            mu, _ = bottleneck_matching(G)
            for _ in range(120):
                nbrs = arr.cell_neighbors(cid)
                if not nbrs:
                    break
                nbr, eid = nbrs[rng.randrange(len(nbrs))]
                pairs = bis[arr.edge_line(eid)].edge_pairs
                if len(pairs) == 1:
                    e1, e2 = pairs[0]
                    G, mu = cross_bisector(G, mu, [(e1, e2)])
                    steps += 1
                else:
                    G, mu = cross_bisector(G, mu, pairs)
                cid = nbr
                c = arr.cell_centroid(cid)
                fresh = prune_candidates(inst, c)
                mu_fresh, _ = bottleneck_matching(fresh)
                assert _value_at(inst, mu, c) == _value_at(inst, mu_fresh, c)
                assert set(G.class_of) == set(fresh.class_of)
        assert steps >= 1000


def test_criterion_10_scale_smoke(capsys):
    with _verdict(capsys, 10, "scale smoke test"):
        rng = random.Random(1010)
        pts = _rand_points(rng, 33, 15)
        inst = Instance(pts[:30], pts[30:])
        assert inst.n == 30 and inst.k == 3
        start = time.monotonic()
        t, mu, val = optimal_translation(inst)
        elapsed = time.monotonic() - start
        assert len(mu) == 3
        assert val <= eval_E(inst, point(0, 0))[0]
        assert elapsed < 60.0, f"n=30 pipeline took {elapsed:.1f}s"

        pts = _rand_points(rng, 16, 10)
        inst = Instance(pts[:12], pts[12:])
        assert inst.n == 12 and inst.k == 4
        start = time.monotonic()
        diag = build_diagram(inst, lex=True)
        elapsed = time.monotonic() - start
        assert diag.faces
        assert elapsed < 300.0, f"n=12 lex labeling took {elapsed:.1f}s"
