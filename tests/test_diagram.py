import ast
import hashlib
import pathlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import botmatch

from botmatch.arrangement import (
    Arrangement,
    FaceRef,
    all_bisectors,
    build_arrangement,
    used_bisectors,
)
from botmatch import applications, diagram
from botmatch.diagram import (
    LabeledDiagram,
    LexLabel,
    _walk_labels,
    build_diagram,
    eval_E,
    label_cells_incremental,
    label_cells_recompute,
    label_faces_lex,
    reduced_arrangement,
)
from botmatch.geom import EdgeRef, Instance, Point, point
from botmatch.matching import ContractViolation, lex_assignments, prune_candidates
from botmatch.oracle import brute_force_E, brute_force_lex, brute_force_lex_matchings
from lex_reference import reference_lex_labels
from translation_reference import walk_labels as reference_walk_labels

E = EdgeRef


def _pts(coords):
    return tuple(point(x, y) for x, y in coords)


def _mk(a_coords, b_coords):
    return Instance(_pts(a_coords), _pts(b_coords))


def _random_instance(rng, n_max=6, k_max=3, span=6):
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n))
    pts: set[tuple[int, int]] = set()
    while len(pts) < n + k:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    flat = sorted(pts)
    rng.shuffle(flat)
    return _mk(flat[:n], flat[n : n + k])


def _reduced(inst):
    bis = used_bisectors(inst, all_bisectors(inst))
    arr = build_arrangement([b.line for b in bis])
    return bis, arr


def _interior_samples(rng, arr, cid, count):
    """Rational points strictly inside a cell: slide from the centroid
    toward random vertices."""
    c = arr.cell_centroid(cid)
    verts = arr.cell_polygon(cid).vertices
    out = [c]
    while len(out) < count:
        v = verts[rng.randrange(len(verts))]
        theta = Fraction(rng.randint(1, 9), 10)
        out.append(c + (v - c).scale(theta))
    return out[:count]


def _value_at(inst, mu, t):
    return max(t.dist2(inst.A[e.a] - inst.B[e.b]) for e in mu)


# -- eval_E ---------------------------------------------------------------------


def test_eval_value_two_on_a_line():
    inst = _mk([(0, 0), (10, 0)], [(0, 0), (1, 0)])
    value, mu = eval_E(inst, point(0, 0))
    assert value == 81
    assert _value_at(inst, mu, point(0, 0)) == 81


def test_eval_zero_on_perfect_overlay():
    inst = _mk([(3, 1), (-2, 5), (0, 0)], [(1, -1), (-4, 3)])
    t = point(2, 2)  # B + t = {(3,1), (-2,5)}, a subset of A
    value, mu = eval_E(inst, t)
    assert value == 0
    assert len({e.a for e in mu}) == inst.k


def test_eval_single_b_is_nearest_neighbor():
    rng = random.Random(31)
    for _ in range(10):
        inst = _random_instance(rng, n_max=7, k_max=1)
        for _ in range(6):
            t = Point(
                Fraction(rng.randint(-60, 60), 8), Fraction(rng.randint(-60, 60), 8)
            )
            value, _mu = eval_E(inst, t)
            assert value == min(t.dist2(a - inst.B[0]) for a in inst.A)


def test_eval_agrees_with_brute_force():
    rng = random.Random(37)
    for _ in range(12):
        inst = _random_instance(rng)
        for _ in range(8):
            t = Point(
                Fraction(rng.randint(-90, 90), 12),
                Fraction(rng.randint(-90, 90), 12),
            )
            value, mu = eval_E(inst, t)
            ref, _ = brute_force_E(inst, t)
            assert value == ref
            assert _value_at(inst, mu, t) == value


def test_eval_matches_brute_force_at_rational_points():
    # Rational coordinates on both sides; t at anchors (values 0 and ties) and
    # at rational points off them.
    rng = random.Random(41)
    for _ in range(10):
        inst = _random_instance(rng, n_max=5)
        half = Fraction(1, rng.choice((2, 3, 7)))
        inst = Instance(
            tuple(p.scale(half) for p in inst.A), tuple(p.scale(half) for p in inst.B)
        )
        ts = [inst.anchor(e) for e in inst.edges()][:4]
        ts += [_random_t(rng) for _ in range(6)]
        for t in ts:
            value, mu = eval_E(inst, t)
            assert value == brute_force_E(inst, t)[0]
            assert _value_at(inst, mu, t) == value


def _random_t(rng):
    return Point(
        Fraction(rng.randint(-90, 90), rng.randint(1, 13)),
        Fraction(rng.randint(-90, 90), rng.randint(1, 13)),
    )


# -- recompute labeling -----------------------------------------------------------


def test_voronoi_labels_single_b():
    # k = 1 degenerates to the Voronoi diagram of the A points.
    inst = _mk([(0, 0), (6, 0), (0, 6), (7, 7)], [(0, 0)])
    bis, arr = _reduced(inst)
    diag = label_cells_recompute(inst, arr, bis)
    for cid in range(arr.n_cells):
        label = diag.cell_label(cid)
        (edge,) = label.matching
        assert edge == label.longest
        t = arr.cell_centroid(cid)
        best = min(t.dist2(a) for a in inst.A)
        assert t.dist2(inst.A[edge.a]) == best


def test_single_cell_when_no_bisectors_survive():
    inst = _mk([(4, 5)], [(0, 0)])
    bis, arr = _reduced(inst)
    assert not bis and arr.n_cells == 1
    diag = label_cells_recompute(inst, arr, bis)
    assert diag.cell_label(0).matching == (E(0, 0),)


def test_neighboring_cells_can_share_labels():
    # Coarsening: adjacent cells separated by a line that swaps edges outside
    # the candidate set keep the same matching.
    inst = _mk([(0, 0), (10, 0), (20, 0)], [(0, 0)])
    bis = all_bisectors(inst)
    arr = build_arrangement([b.line for b in bis])
    diag = label_cells_recompute(inst, arr, bis)
    shared = 0
    for c1, c2, _eid in arr.dual_edges():
        if diag.cell_label(c1).matching == diag.cell_label(c2).matching:
            shared += 1
    assert shared > 0


def test_labels_valid_at_interior_samples():
    rng = random.Random(43)
    for _ in range(6):
        inst = _random_instance(rng, n_max=6, k_max=3, span=4)
        bis, arr = _reduced(inst)
        diag = label_cells_recompute(inst, arr, bis)
        cids = range(arr.n_cells)
        if arr.n_cells > 400:
            cids = rng.sample(range(arr.n_cells), 400)
        for cid in cids:
            label = diag.cell_label(cid)
            for t in _interior_samples(rng, arr, cid, 3):
                got = _value_at(inst, label.matching, t)
                want, _ = brute_force_E(inst, t)
                assert got == want


def test_longest_edge_constant_across_cell():
    rng = random.Random(47)
    for _ in range(8):
        inst = _random_instance(rng, n_max=6, k_max=3, span=5)
        bis, arr = _reduced(inst)
        diag = label_cells_recompute(inst, arr, bis)
        for cid in range(arr.n_cells):
            label = diag.cell_label(cid)
            top_diff = inst.diff(label.longest)
            for t in _interior_samples(rng, arr, cid, 3):
                worst = max(
                    label.matching, key=lambda e: (t.dist2(inst.A[e.a] - inst.B[e.b]))
                )
                # The longest edge may only change within its equivalence
                # class (same difference vector, identical length everywhere).
                assert inst.diff(worst) == top_diff


# -- incremental labeling ---------------------------------------------------------


def test_incremental_matches_recompute_small():
    rng = random.Random(53)
    for _ in range(8):
        inst = _random_instance(rng, n_max=7, k_max=3, span=4)
        bis, arr = _reduced(inst)
        rec = label_cells_recompute(inst, arr, bis)
        inc = label_cells_incremental(inst, arr, bis)
        for cid in range(arr.n_cells):
            t = arr.cell_centroid(cid)
            assert rec.cell_label(cid).rank == inc.cell_label(cid).rank
            assert _value_at(inst, rec.cell_label(cid).matching, t) == _value_at(
                inst, inc.cell_label(cid).matching, t
            )


def test_incremental_on_full_arrangement():
    # The traversal never relies on the reduction: labels stay valid when
    # every bisector is kept.
    rng = random.Random(59)
    for _ in range(6):
        inst = _random_instance(rng, n_max=5, k_max=3, span=4)
        bis = all_bisectors(inst)
        arr = build_arrangement([b.line for b in bis])
        diag = label_cells_incremental(inst, arr, bis)
        for cid in range(arr.n_cells):
            t = arr.cell_centroid(cid)
            want, _ = eval_E(inst, t)
            assert _value_at(inst, diag.cell_label(cid).matching, t) == want


def test_idle_crossing_keeps_identical_label():
    # Between the collinear A points, crossing the outer-pair bisector
    # x = 10 touches no candidate edge: the two middle strips share one label.
    inst = _mk([(0, 0), (10, 0), (20, 0)], [(0, 0)])
    bis = all_bisectors(inst)
    arr = build_arrangement([b.line for b in bis])
    diag = label_cells_incremental(inst, arr, bis)
    left = arr.locate(point(7, 0))
    right = arr.locate(point(12, 0))
    assert left.dim == 2 and right.dim == 2 and left.index != right.index
    assert diag.cells[left.index] is diag.cells[right.index]
    assert diag.cell_label(left.index).matching == (E(1, 0),)


def test_voronoi_crossing_swaps_nearest():
    inst = _mk([(0, 0), (8, 2)], [(0, 0)])
    bis, arr = _reduced(inst)
    assert len(bis) == 1
    diag = label_cells_incremental(inst, arr, bis)
    labels = {diag.cell_label(cid).matching for cid in range(arr.n_cells)}
    assert labels == {(E(0, 0),), (E(1, 0),)}


def test_walk_on_a_subset_labels_only_its_cells():
    rng = random.Random(83)
    for _ in range(6):
        inst = _random_instance(rng, n_max=5, span=5)
        bis, arr = _reduced(inst)
        full = label_cells_incremental(inst, arr, bis)
        subset = [c for c in range(arr.n_cells) if rng.random() < 0.4]
        labels, parts = _walk_labels(inst, arr, bis, subset)
        assert parts <= len(subset)
        for cid in range(arr.n_cells):
            if cid not in subset:
                assert labels[cid] is None
                continue
            got, ref = labels[cid], full.cell_label(cid)
            assert got.rank == ref.rank
            assert inst.anchor(got.longest) == inst.anchor(ref.longest)
            t = arr.cell_centroid(cid)
            assert _value_at(inst, got.matching, t) == _value_at(inst, ref.matching, t)


def test_walk_tree_and_fold_equal_the_interleaved_walk():
    # The reference walks breadth-first and labels as it goes; the library
    # builds the tree first and folds _crossed over it, or along one path.
    # At n = 5, k = 2 the whole box has tied optima whose labels depend on
    # the walk's order: taking neighbours in reverse changes 5-77 of the
    # 499-766 labels of each of these whole boxes.
    rng = random.Random(84)
    for _ in range(6):
        pts: set[tuple[int, int]] = set()
        while len(pts) < 7:
            pts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        flat = sorted(pts)
        rng.shuffle(flat)
        inst = _mk(flat[:5], flat[5:])
        bis, arr = reduced_arrangement(inst)
        subset = [c for c in range(arr.n_cells) if rng.random() < 0.6]
        for cells in (range(arr.n_cells), subset):
            ref, ref_parts = reference_walk_labels(inst, arr, bis, cells)
            labels, parts = _walk_labels(inst, arr, bis, cells)
            assert (labels, parts) == (ref, ref_parts)
            tree, tree_parts = diagram._walk_tree(arr, cells)
            assert tree_parts == parts and sorted(c for c, _p, _e in tree) == sorted(cells)
        for cid in rng.sample(subset, min(8, len(subset))):
            assert diagram._walk_label_of(inst, arr, bis, subset, cid) == ref[cid]


def test_walk_counts_components():
    # Voronoi cells of three points on a line: cells 0 and 2 are not adjacent.
    inst = _mk([(0, 0), (4, 0), (8, 0)], [(0, 0)])
    bis, arr = _reduced(inst)
    assert arr.n_cells == 3
    ends = [c for c in range(3) if len(arr.cell_neighbors(c)) == 1]
    labels, parts = _walk_labels(inst, arr, bis, ends)
    assert parts == 2
    assert sum(label is not None for label in labels) == 2
    _labels, parts = _walk_labels(inst, arr, bis, range(3))
    assert parts == 1


def _walk_pin_families():
    """Whole-box instances whose lines carry several tie pairs, plus random ones."""
    yield _mk([(x, 0) for x in range(5)], [(0, 0), (1, 0), (3, 0)])  # collinear
    yield _mk([(x, 2 * x - 1) for x in (-3, -1, 0, 2, 3)], [(0, 0), (1, 3)])
    yield _mk([(x, y) for x in range(0, 6, 2) for y in range(0, 4, 2)], [(0, 0), (1, 0), (0, 1)])
    ring = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3)]
    yield _mk(ring[:5], [(0, 0), (1, 2)])  # co-circular
    yield _mk(ring[:4], ring[4:])  # k = n, co-circular
    yield _mk([(0, 0), (3, 1), (1, 4)], [(0, 0), (2, 2), (5, 0)])  # k = n
    yield _mk([(5, 5), (6, 4), (6, 5), (20, 20)], [(0, 0), (1, 0), (0, 1)])
    rng = random.Random(2001)
    for _ in range(4):
        pts: set[tuple[int, int]] = set()
        while len(pts) < 7:
            pts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        flat = sorted(pts)
        rng.shuffle(flat)
        yield _mk(flat[:5], flat[5:])


def test_walk_labels_are_pinned():
    # Every label of the incremental walk, over 8,844 cells, is the walk's own
    # choice among tied optima: a change to the crossing rules that keeps the
    # values right can still move a matching, and this hash sees it.
    digest = hashlib.sha256()
    for inst in _walk_pin_families():
        bis, arr = reduced_arrangement(inst)
        for label in label_cells_incremental(inst, arr, bis).cells:
            digest.update(repr(label).encode() + b"\n")
    assert digest.hexdigest() == "df816603a07ac2acbf9bb1f69419d0d944aa81acd48e34d6c800a21722c612c8"


def test_walked_graph_is_the_pruned_graph_of_every_cell():
    # The walk carries one candidate graph across crossings and never prunes
    # again; at every cell it must equal a fresh prune at the cell's sample.
    from test_applications import _pruning_families

    builds = [(inst, *reduced_arrangement(inst)) for inst in _walk_pin_families()]
    for inst in [*_walk_pin_families(), *_pruning_families()]:
        upper = min(eval_E(inst, inst.anchor(e))[0] for e in inst.edges())
        for window in applications._optimizer_windows(inst, 4 * upper + 4):
            builds.append((inst, *reduced_arrangement(inst, window=window)))
    multi = 0  # state-changing crossings of a line that ties several class pairs
    for inst, bis, arr in builds:
        states = {}
        for c, parent, eid in diagram._walk_tree(arr, range(arr.n_cells))[0]:
            if parent < 0:
                st = diagram._start_state(inst, arr, c)
            else:
                bisector = bis[arr.edge_line(eid)]
                st = diagram._crossed(states[parent], bisector)
                key = st.G.class_key
                classes = {frozenset((key(e1), key(e2))) for e1, e2 in bisector.edge_pairs}
                multi += st is not states[parent] and len(classes) > 1
            states[c] = st
            fresh = prune_candidates(inst, arr.face_sample(FaceRef(2, c)))
            assert [set(level) for level in st.G.levels] == [set(level) for level in fresh.levels]
            assert st.G.members == fresh.members
    assert multi > 0


def test_alignment_mismatch_rejected():
    inst = _mk([(0, 0), (3, 1)], [(0, 0)])
    bis, arr = _reduced(inst)
    other = _mk([(0, 0), (5, 5)], [(0, 0)])
    wrong = used_bisectors(other, all_bisectors(other))
    with pytest.raises(ValueError):
        label_cells_incremental(inst, arr, wrong)


# -- lex labeling -----------------------------------------------------------------


def _triple_sample(arr, ref):
    x, y, w = arr.face_sample_triple(ref)
    return Point(Fraction(x, w), Fraction(y, w))


def _sorted_lengths(inst, mu, t):
    return tuple(
        sorted((t.dist2(inst.A[e.a] - inst.B[e.b]) for e in mu), reverse=True)
    )


def test_lex_labels_match_brute_force():
    rng = random.Random(61)
    for _ in range(5):
        inst = _random_instance(rng, n_max=6, k_max=3, span=4)
        bis, arr = _reduced(inst)
        diag = label_faces_lex(inst, arr, bis)
        refs = list(arr.iter_faces())
        if len(refs) > 900:
            refs = rng.sample(refs, 900)
        for ref in refs:
            label = diag.face_lex(ref)
            t = _triple_sample(arr, ref)
            assert label.cost_vector == brute_force_lex(inst, t)
            assert _sorted_lengths(inst, label.matching, t) == label.cost_vector
            # The matching stays lex-optimal at a second relative-interior
            # point of the same face (edges and vertices have only one).
            if ref.dim == 2:
                t2 = arr.cell_polygon(ref.index).centroid()
            else:
                t2 = arr.face_sample(ref)
            assert _sorted_lengths(inst, label.matching, t2) == brute_force_lex(
                inst, t2
            )


def test_lex_optima_share_matched_subset_in_cells():
    # Matched-set uniqueness holds on open sets, hence at cell samples.
    # Lower-dimensional faces sit on bisector lines where ties across
    # different A points are real and the subsets may differ.
    rng = random.Random(67)
    insts = [_random_instance(rng, n_max=5, k_max=3, span=4) for _ in range(6)]
    # Difference-vector 6-cycle: two distinct matchings with identical edge
    # lengths everywhere, so whole cells carry a lex tie.
    insts.append(_mk([(5, 5), (6, 4), (6, 5), (20, 20)], [(0, 0), (1, 0), (0, 1)]))
    seen_tie = False
    for inst in insts:
        bis, arr = _reduced(inst)
        for cid in range(arr.n_cells):
            t = arr.cell_centroid(cid)
            _vec, mus = brute_force_lex_matchings(inst, t)
            subsets = {frozenset(e.a for e in mu) for mu in mus}
            assert len(subsets) == 1
            seen_tie = seen_tie or len(mus) > 1
    assert seen_tie


def test_lex_subsets_may_differ_on_bisector_faces():
    # On the bisector itself both nearest points are legitimate lex labels.
    inst = _mk([(0, 0), (4, 0)], [(0, 0)])
    t = point(2, 0)
    _vec, mus = brute_force_lex_matchings(inst, t)
    assert {frozenset(e.a for e in mu) for mu in mus} == {
        frozenset({0}),
        frozenset({1}),
    }


def test_lex_equals_bottleneck_for_single_b():
    inst = _mk([(0, 0), (5, 1), (2, 6)], [(0, 0)])
    bis, arr = _reduced(inst)
    diag = label_faces_lex(inst, arr, bis)
    for ref in arr.iter_faces():
        label = diag.face_lex(ref)
        t = _triple_sample(arr, ref)
        value, _ = eval_E(inst, t)
        assert label.cost_vector == (value,)


def test_lex_cell_labels_agree_with_bottleneck_rank():
    rng = random.Random(71)
    for _ in range(5):
        inst = _random_instance(rng, n_max=5, k_max=3, span=4)
        lex = build_diagram(inst, lex=True)
        arr = lex.arrangement
        rec = label_cells_recompute(inst, arr, lex.bisectors)
        for cid in range(arr.n_cells):
            assert lex.cell_label(cid).rank == rec.cell_label(cid).rank
            t = arr.cell_centroid(cid)
            assert _value_at(inst, lex.cell_label(cid).matching, t) == _value_at(
                inst, rec.cell_label(cid).matching, t
            )


def _past_63_instance(n):
    """n sites in [-40, 40]^2 and one b, with the generator that drew them."""
    rng = random.Random(5)
    pts: set[tuple[int, int]] = set()
    while len(pts) < n + 1:
        pts.add((rng.randint(-40, 40), rng.randint(-40, 40)))
    flat = sorted(pts)
    rng.shuffle(flat)
    return _mk(flat[:n], flat[n:]), rng


@pytest.mark.parametrize("n", [64, 70])
def test_lex_labels_past_63_sites(n):
    # Past 63 sites a candidate set no longer fits one int64 bitmask; the
    # labels must not depend on how many sites there are.
    inst, rng = _past_63_instance(n)
    diag = build_diagram(inst, lex=True)
    refs = list(diag.arrangement.iter_faces())
    high = [r for r in refs if diag.face_lex(r).matching[0].a >= 63]
    assert high, "no face is matched to a site past the first word"
    for ref in rng.sample(refs, 150) + rng.sample(high, min(100, len(high))):
        t = diag.arrangement.face_sample(ref)
        assert diag.face_lex(ref).cost_vector == brute_force_lex(inst, t)


def _lex_families():
    """Criterion 4's instances, degenerate pools, k = n, rational and n past 63."""
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(3, n))
        pts: set[tuple[int, int]] = set()
        while len(pts) < n + k:
            pts.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        flat = sorted(pts)
        yield _mk(flat[:n], flat[n:])
    # three optima in every cell
    yield _mk([(5, 5), (6, 4), (6, 5), (20, 20)], [(0, 0), (1, 0), (0, 1)])
    yield _mk([(x, 2 * x - 1) for x in (-3, -1, 0, 2, 3)], [(0, 0), (1, 3)])
    yield _mk([(x, 0) for x in range(5)], [(0, 0), (1, 0), (3, 0)])
    lattice = [(x, y) for x in range(0, 6, 2) for y in range(0, 4, 2)]
    yield _mk(lattice, [(0, 0), (1, 0), (0, 1)])
    ring = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3)]
    yield _mk(ring[:5], [(0, 0), (1, 2)])
    yield _mk(ring[:4], ring[4:])  # k = n, co-circular
    yield _mk([(0, 0), (3, 1), (1, 4)], [(0, 0), (2, 2), (5, 0)])  # k = n
    yield _mk([("1/3", 2), (0, 0), (3, 1), (-2, "5/2")], [("-5/7", 1), (1, 1)])
    yield _mk([(3, 4)], [(0, 0)])  # one cell, no bisector
    yield _past_63_instance(64)[0]
    yield _past_63_instance(70)[0]


def _assert_lex_matches_reference(inst, diag):
    faces, cells = reference_lex_labels(inst, diag.arrangement)
    assert list(diag.faces) == list(faces)
    for ref, want in faces.items():
        got = diag.faces[ref]
        assert got.matching == want.matching, ref
        assert (got._nums, got._den) == (want._nums, want._den), ref
        assert got.cost_vector == want.cost_vector, ref
    assert diag.cells == cells


def test_lex_labels_equal_per_face_reference():
    for inst in _lex_families():
        diag = build_diagram(inst, lex=True)
        assert diag.faces.matched.dtype == "int64"
        _assert_lex_matches_reference(inst, diag)


def _lex_on_python_ints(monkeypatch, inst):
    with monkeypatch.context() as m:
        m.setattr(diagram, "_INT64_LIMIT", 0)
        return build_diagram(inst, lex=True)


@pytest.mark.parametrize("scale", [1, 10**9])
def test_int64_and_python_int_lex_labels_agree(monkeypatch, scale):
    # Small coordinates keep Q in int64; scaled by 10^9 the bound on |Q|
    # passes the int64 limit and the same statements run on Python ints.
    A = [(0, 0), (7 * scale, 2 * scale), (3 * scale, 5 * scale), (-2 * scale, 4 * scale)]
    inst = _mk(A, [(0, scale), (2 * scale, 0)])
    narrow = build_diagram(inst, lex=True)
    wide = _lex_on_python_ints(monkeypatch, inst)
    assert narrow.faces.matched.dtype == ("int64" if scale == 1 else object)
    assert wide.faces.matched.dtype == object
    _assert_lex_matches_reference(inst, narrow)
    _assert_lex_matches_reference(inst, wide)


def test_lex_labeller_makes_no_call_per_face_or_per_key(monkeypatch):
    # Samples come from one face_samples() array and every distinct key is
    # solved by one lex_assignments call, not one Python call per face or key.
    inst = _mk([(0, 0), (4, 1), (1, 5), (-3, 2), (2, -4)], [(0, 0), (3, 3), (-1, 2)])

    def per_face(self, ref):
        raise AssertionError(f"per-face sample read at {ref}")

    solved = []

    def counting(k, n, ranks):
        solved.append(len(ranks))
        return lex_assignments(k, n, ranks)

    monkeypatch.setattr(Arrangement, "face_sample_triple", per_face)
    monkeypatch.setattr(diagram, "lex_assignments", counting)
    diag = build_diagram(inst, lex=True)
    assert len(diag.faces) == len(list(diag.arrangement.iter_faces()))
    assert 1 < sum(solved) < len(diag.faces)
    assert len(solved) == -(-sum(solved) // diagram._ASSIGN_SLICE)  # full slices


def _lex_rows_by_row(inst, samples):
    """``_lex_rows`` per row: (matching, cell label, matched Q values), and the dtype used."""
    used, matchings, cells, ids, matched = diagram._lex_rows(inst, samples)
    rows = [(matchings[m], cells[c], q) for (m, c), q in zip(ids.tolist(), matched.tolist())]
    return used.dtype, rows


_CHUNKED_A = [(0, 0), (4, 1), (1, 5), (-3, 2), (2, -4)]
_CHUNKED_B = [(0, 0), (3, 3), (-1, 2)]


@pytest.mark.parametrize("scale", [1, 10**9])
def test_lex_rows_do_not_depend_on_the_chunking(monkeypatch, scale):
    # 10^9 takes Q past the int64 bound, so the chunks run on object arrays
    inst = _mk(
        [(x * scale, y * scale) for x, y in _CHUNKED_A],
        [(x * scale, y * scale) for x, y in _CHUNKED_B],
    )
    samples = reduced_arrangement(inst)[1].face_samples()
    whole = _lex_rows_by_row(inst, samples)
    step = 97  # rows per chunk
    assert len(samples) > 50 * step and len(samples) % step  # many chunks, the last one ragged
    monkeypatch.setattr(diagram, "_LEX_CHUNK", step * inst.k * inst.n)
    chunked = _lex_rows_by_row(inst, samples)
    assert chunked[0] == whole[0] == (np.int64 if scale == 1 else object)
    assert chunked[1] == whole[1]


def test_lex_rows_on_no_samples_are_empty():
    inst = _mk(_CHUNKED_A, _CHUNKED_B)
    used, matchings, cells, ids, matched = diagram._lex_rows(inst, np.empty((0, 3), dtype=np.int64))
    assert (len(used), matchings, cells) == (0, [], [])
    assert ids.shape == (0, 2) and matched.shape == (0, inst.k)


def test_lex_rows_solve_each_distinct_key_once_in_full_slices(monkeypatch):
    inst = _mk(_CHUNKED_A, _CHUNKED_B)
    samples = reduced_arrangement(inst)[1].face_samples()

    def solved_keys():
        calls = []

        def spy(k, n, ranks):
            calls.append(np.array(ranks).reshape(len(ranks), k * n))
            return lex_assignments(k, n, ranks)

        with monkeypatch.context() as m:
            m.setattr(diagram, "lex_assignments", spy)
            diagram._lex_rows(inst, samples)
        return calls

    monkeypatch.setattr(diagram, "_ASSIGN_SLICE", 16)
    distinct = {row.tobytes() for call in solved_keys() for row in call}  # one chunk
    monkeypatch.setattr(diagram, "_LEX_CHUNK", 50 * inst.k * inst.n)  # 50 rows per chunk
    calls = solved_keys()
    assert len(samples) > 100 * 50 and len(calls) > 2
    assert sum(map(len, calls)) == len(distinct)
    assert {row.tobytes() for call in calls for row in call} == distinct
    assert [len(call) for call in calls[:-1]] == [16] * (len(calls) - 1)


def test_lex_rows_working_set_is_bounded_by_the_chunk():
    # the benchmark's lex size: n = 5, k = 4 in [-10, 10]^2, 58,583 faces
    rng = random.Random(7)
    pts: set[tuple[int, int]] = set()
    while len(pts) < 9:
        pts.add((rng.randint(-10, 10), rng.randint(-10, 10)))
    flat = sorted(pts)
    inst = _mk(flat[:5], flat[5:])
    samples = reduced_arrangement(inst)[1].face_samples()
    assert len(samples) > 50_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = diagram._lex_rows(inst, samples)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(out[3]) == len(samples)
    assert peak <= 16_000_000, f"lex core peaked at {peak / 1e6:.1f} MB"


def test_lex_faces_view_reads_like_a_dict():
    inst = _mk([(0, 0), (4, 1), (1, 5)], [(0, 0), (3, 3)])
    diag = build_diagram(inst, lex=True)
    refs = list(diag.arrangement.iter_faces())
    assert len(diag.faces) == len(refs)
    assert list(diag.faces) == refs
    plain = dict(diag.faces)
    assert list(plain) == refs
    assert [ref for ref, _label in diag.faces.items()] == refs
    values = list(diag.faces.values())
    assert [v.matching for v in values] == [plain[r].matching for r in refs]
    assert [v._nums for v in values] == [plain[r]._nums for r in refs]
    assert refs[-1] in diag.faces and tuple(refs[0]) in diag.faces
    for bad in (FaceRef(2, diag.arrangement.n_cells), FaceRef(0, -1), FaceRef(3, 0), "x"):
        assert bad not in diag.faces
        with pytest.raises(KeyError):
            diag.faces[bad]
    with pytest.raises(TypeError):
        diag.faces[refs[0]] = plain[refs[0]]
    with pytest.raises(ContractViolation):
        build_diagram(inst).face_lex(refs[0])
    # a plain dict and a list still replace the labels, as checks that
    # plant wrong labels do
    good = plain[refs[0]]
    planted = LexLabel(good.matching, tuple(v + 1 for v in good._nums), good._den)
    diag.faces = {**plain, refs[0]: planted}
    assert diag.face_lex(refs[0]) is planted
    assert planted._nums == tuple(v + 1 for v in good._nums) and planted._den == good._den
    diag.cells = list(reversed(diag.cells))
    assert diag.cell_label(0) == diag.cells[0]


# -- orchestration ----------------------------------------------------------------


def test_build_diagram_modes():
    inst = _mk([(0, 0), (4, 1), (1, 5)], [(0, 0), (3, 3)])
    bis, arr = reduced_arrangement(inst)
    inc = build_diagram(inst)
    assert inc.faces is None and list(inc.bisectors) == bis
    assert inc.arrangement.n_cells == arr.n_cells
    assert "cells" not in vars(inc)  # labelled on first read
    assert inc.cells == label_cells_incremental(inst, inc.arrangement, bis).cells
    assert len(inc.cells) == inc.arrangement.n_cells
    lex = build_diagram(inst, lex=True)
    assert len(lex.faces) == sum(1 for _ in lex.arrangement.iter_faces())
    assert len(lex.cells) == lex.arrangement.n_cells
    for cid in range(lex.arrangement.n_cells):
        assert lex.cells[cid].matching == lex.face_lex(FaceRef(2, cid)).matching
    with pytest.raises(TypeError):
        build_diagram(inst, labels="incremental")


def test_build_diagram_box_covers_anchors():
    inst = _mk([(0, 0), (9, -7)], [(2, 2)])
    _bis, arr = reduced_arrangement(inst)
    xlo, ylo, xhi, yhi = arr.box
    for e in inst.edges():
        anchor = inst.anchor(e)
        assert xlo < anchor.x < xhi and ylo < anchor.y < yhi


def test_build_diagram_keep_all_bisectors():
    inst = _mk([(0, 0), (2, 0), (4, 0)], [(0, 0)])
    _bis, reduced = reduced_arrangement(inst)
    full = build_arrangement([b.line for b in all_bisectors(inst)])
    assert reduced.n_lines < full.n_lines


def test_queries_and_labels_use_no_bare_assert():
    # Library invariants raise ContractViolation, so they still run under -O.
    hits = []
    for path in sorted(pathlib.Path(botmatch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and "AssertionError" in ast.dump(node)
            ):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, hits
    # one class, defined in geom and re-exported where matching raises it
    assert botmatch.matching.ContractViolation is botmatch.geom.ContractViolation


def _names_used(tree):
    """Every name a module reads, including names inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_used(ast.parse(node.value, mode="eval"))
    return used


def test_library_modules_use_every_import():
    # __init__.py imports in order to re-export; every other module must read
    # each name it imports.
    hits = []
    for path in sorted(pathlib.Path(botmatch.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {n}" for n in names if n not in used]
    assert not hits, hits


def _package_imports(tree):
    """The botmatch modules a module imports, relatively or by absolute name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = "botmatch" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            mods = [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        out |= {m.split(".")[1] for m in mods if m.startswith("botmatch.")}
    return out


def test_library_layers_import_downward():
    # geom is the base; arrangement, matching and oracle are sibling layers on
    # it; diagram builds on them, applications on diagram, and cli on top.
    only = {"geom": set(), "arrangement": {"geom"}, "matching": {"geom"}, "oracle": {"geom"}}
    never = {"diagram": {"applications", "cli"}, "applications": {"cli"}}
    hits = []
    for path in sorted(pathlib.Path(botmatch.__file__).parent.glob("*.py")):
        name = path.stem
        imported = _package_imports(ast.parse(path.read_text(), filename=str(path)))
        bad = imported - only[name] if name in only else imported & never.get(name, set())
        hits += [f"{name} imports {m}" for m in sorted(bad)]
    assert not hits, hits


def test_windowed_labels_hold_on_their_closed_cells():
    # A window keeps a bisector only where its tie can matter inside the
    # window. Had it dropped a line it needs, some cell would hold points
    # where the label's site misses the bottleneck value.
    rng = random.Random(1_3301)
    cells = 0
    for _ in range(16):
        inst = _random_instance(rng, n_max=6, span=5)
        s = inst.anchor(rng.choice(list(inst.edges())))
        x0, y0 = int(s.x) - rng.randint(0, 4), int(s.y) - rng.randint(0, 4)
        window = (x0, y0, x0 + rng.randint(1, 8), y0 + rng.randint(1, 8))
        bis, arr = reduced_arrangement(inst, window=window)
        assert arr.box == window
        for cid, label in enumerate(label_cells_incremental(inst, arr, bis).cells):
            site = inst.anchor(label.longest)
            ring = [arr.vertex_point(v) for v in arr.cell_cycle(cid)]
            for p in ring + [arr.cell_centroid(cid)]:
                assert eval_E(inst, p)[0] == p.dist2(site)
            cells += 1
    assert cells >= 100
