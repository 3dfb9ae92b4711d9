import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from botmatch import bottleneck_path, cover_radius, diagram, matching
from botmatch.diagram import build_diagram
from botmatch.geom import (
    ContractViolation,
    EdgeRef,
    Instance,
    Point,
    convex_polygon,
    point,
    squared_edge_length,
)
from botmatch.matching import (
    CandidateGraph,
    NoCompleteMatching,
    bottleneck_matching,
    canonical_complete_matching,
    cross_bisector,
    lex_assignments,
    lex_bottleneck_matching,
    matching_from_map,
    matching_map,
    max_matching,
    prune_candidates,
)
from botmatch.oracle import brute_force_E, brute_force_lex
from lex_reference import reference_assignment

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


def _random_t(rng):
    return Point(
        Fraction(rng.randint(-80, 80), 16), Fraction(rng.randint(-80, 80), 16)
    )


# -- pruning ------------------------------------------------------------------


def test_prune_collinear_example():
    inst = _mk([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], [(0, 0), (4, 0)])
    G = prune_candidates(inst, point(0, 0))
    assert G.by_b[0] == {E(0, 0), E(1, 0)}
    assert G.by_b[1] == {E(4, 1), E(3, 1)}
    assert len(list(G.edges())) == 4
    # a0b0 and a4b1 share a difference vector: one class at rank 1. The two
    # rank-2 edges are inequivalent but tie in length at this translation.
    assert G.w(E(0, 0)) == G.w(E(4, 1)) == 1
    assert G.w(E(1, 0)) == G.w(E(3, 1)) == 2
    assert G.class_of[E(0, 0)] == G.class_of[E(4, 1)]
    assert G.rank_count == 2 and len(G.levels[1]) == 2


def test_prune_single_edge():
    G = prune_candidates(_mk([(3, 4)], [(0, 0)]), point(1, 1))
    assert set(G.edges()) == {E(0, 0)}
    assert G.w(E(0, 0)) == 1


def test_prune_tie_extension():
    # k-th and (k+1)-th incident edges equally long: both stay.
    inst = _mk([(1, 0), (-1, 0), (5, 0)], [(0, 0)])
    G = prune_candidates(inst, point(0, 0))
    assert G.by_b[0] == {E(0, 0), E(1, 0)}


def test_prune_candidate_sets_are_k_smallest():
    rng = random.Random(7)
    for _ in range(30):
        inst = _random_instance(rng)
        t = _random_t(rng)
        G = prune_candidates(inst, t)
        G.check_invariants()
        for b in range(inst.k):
            kept = G.by_b[b]
            assert len(kept) >= inst.k
            worst = max(squared_edge_length(inst, e, t) for e in kept)
            for a in range(inst.n):
                e = E(a, b)
                if e not in kept:
                    assert squared_edge_length(inst, e, t) > worst


def _fraction_candidate_graph(inst, t):
    """Candidate sets and dense ranks straight from Fraction lengths."""
    length = {e: (inst.B[e.b] + t - inst.A[e.a]).norm2() for e in inst.edges()}
    kept = []
    for b in range(inst.k):
        incident = sorted((length[E(a, b)], a) for a in range(inst.n))
        kept += [E(a, b) for v, a in incident if v <= incident[inst.k - 1][0]]
    distinct = sorted({length[e] for e in kept})
    levels = [[] for _ in distinct]
    members = {}
    for e in kept:
        members.setdefault(inst.diff(e), set()).add(e)
    for key in sorted(members, key=lambda d: (d.x, d.y)):
        e = next(iter(members[key]))
        levels[distinct.index(length[e])].append(key)
    return levels, members


def test_prune_candidates_matches_fraction_ranks():
    # rational A, B and t; the second, coarse translation per instance makes
    # exact ties between classes (shared levels) common
    rng = random.Random(71)
    shared_levels = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        pts: set[Point] = set()
        while len(pts) < n + k:
            d = rng.choice([1, 2, 3])
            x, y = rng.randint(-5 * d, 5 * d), rng.randint(-5 * d, 5 * d)
            pts.add(Point(Fraction(x, d), Fraction(y, d)))
        flat = sorted(pts)
        rng.shuffle(flat)
        inst = Instance(tuple(flat[:n]), tuple(flat[n:]))
        for t in (_random_t(rng), Point(Fraction(rng.randint(-6, 6), 3), Fraction(0))):
            G = prune_candidates(inst, t)
            levels, members = _fraction_candidate_graph(inst, t)
            _M, anchors = inst.int_anchors
            for key, edges in G.members.items():
                assert {anchors[e.b][e.a] for e in edges} == {key}
            diff_of = {key: inst.diff(min(edges)) for key, edges in G.members.items()}
            assert [[diff_of[key] for key in level] for level in G.levels] == levels
            assert {diff_of[key]: edges for key, edges in G.members.items()} == members
            assert [diff_of[key] for key in G.members] == list(members)
            shared_levels += any(len(level) > 1 for level in levels)
    assert shared_levels > 0, "no tie between classes was exercised"


# -- maximum matching and bottleneck ------------------------------------------


def test_max_matching_small():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 0): 2, E(0, 1): 3, E(1, 1): 4})
    assert len(max_matching(G, 4)) == 2
    assert max_matching(G, 0) == ()
    star = CandidateGraph.from_ranks(3, {E(0, 0): 1, E(0, 1): 2, E(0, 2): 3})
    assert len(max_matching(star, 3)) == 1


def _max_matching_size(adj, k):
    """Maximum matching size by plain augmenting paths from each b."""
    match_a = {}

    def augment(b, seen):
        for a in adj[b]:
            if a not in seen:
                seen.add(a)
                if a not in match_a or augment(match_a[a], seen):
                    match_a[a] = b
                    return True
        return False

    return sum(augment(b, set()) for b in range(k))


def test_hopcroft_karp_first_phase_and_maximum_on_random_adjacencies():
    rng = random.Random(21)
    complete = short = rescued = 0
    for _ in range(600):
        k = rng.randint(1, 7)
        n = rng.randint(k, 9)
        density = rng.choice([0.2, 0.4, 0.7, 1.0])
        pairs = [(b, a) for b in range(k) for a in range(n) if rng.random() < density]
        adj = matching._adjacency_of(k, pairs)
        found = matching._verified_max_matching(adj, k)
        assert len(found) == _max_matching_size(adj, k)
        assert all(e.a in adj[e.b] for e in found)
        assert len({e.a for e in found}) == len(found)
        # the first phase from the empty matching: each b in order takes its least free a
        greedy: dict[int, int] = {}
        for b in range(k):
            free = [a for a in adj[b] if a not in greedy.values()]
            if free:
                greedy[b] = min(free)
        if len(greedy) == k:
            complete += 1
            assert found == matching_from_map(greedy)
        else:
            short += 1
            rescued += len(found) == k
    # both branches run, and greedy often falls short where a complete matching exists
    assert complete >= 100 and short >= 100 and rescued >= 20


def test_bottleneck_kernels_leave_no_reference_cycles():
    rng = random.Random(22)
    inst = _random_instance(rng, n_max=8, k_max=3)
    while inst.k < 2:
        inst = _random_instance(rng, n_max=8, k_max=3)
    Q = convex_polygon([(-9, -9), (9, -9), (9, 9), (-9, 9)])
    gc.collect()
    gc.disable()
    try:
        for _ in range(300):
            diagram.eval_E(inst, _random_t(rng))
        bottleneck_path(inst, point(-1, 0), point(2, 3))
        cover_radius(inst, Q)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bottleneck_example():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(0, 1): 2, E(1, 1): 3, E(1, 0): 4})
    mu, rank = bottleneck_matching(G)
    assert mu == (E(0, 0), E(1, 1))
    assert rank == 3


def test_bottleneck_k1_and_tied_ranks():
    G = CandidateGraph.from_ranks(1, {E(2, 0): 1, E(0, 0): 2})
    assert bottleneck_matching(G) == ((E(2, 0),), 1)
    tied = CandidateGraph.from_ranks(
        2, {E(0, 0): 1, E(1, 0): 1, E(0, 1): 1, E(1, 1): 1}
    )
    mu, rank = bottleneck_matching(tied)
    assert rank == 1 and len(mu) == 2


def test_no_complete_matching():
    with pytest.raises(NoCompleteMatching):
        bottleneck_matching(CandidateGraph.from_ranks(2, {E(0, 0): 1}))
    shared_a = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(0, 1): 2})
    with pytest.raises(NoCompleteMatching):
        bottleneck_matching(shared_a)
    with pytest.raises(NoCompleteMatching):
        lex_bottleneck_matching(shared_a)


def _least_rank_by_scan(G):
    """Reference search: every cap from 1 up, the witness at the first complete one."""
    for r in range(1, G.rank_count + 1):
        mu = max_matching(G, r)
        if len(mu) == G.k:
            return mu, r
    raise NoCompleteMatching("no complete matching at any cap")


def _floor_of(G):
    """The first rank at which every b has a candidate edge, from the graph."""
    return max(min(G.w(e) for e in G.by_b[b]) for b in range(G.k))


def test_bottleneck_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        inst = _random_instance(rng)
        t = _random_t(rng)
        G = prune_candidates(inst, t)
        mu, rank = bottleneck_matching(G)
        value = max(squared_edge_length(inst, e, t) for e in mu)
        ref_value, _ = brute_force_E(inst, t)
        assert value == ref_value
        assert rank == max(G.w(e) for e in mu)
        assert (mu, rank) == _least_rank_by_scan(G)
        matching_map(mu)  # validates injectivity


def test_bottleneck_runs_one_max_matching_per_distinct_cap(monkeypatch):
    from botmatch import matching

    sizes = []  # edges in each probe's adjacency: the probe's prefix of the rank order
    logs = []
    verified = matching._verified_max_matching
    edges_by_rank = matching._edges_by_rank

    def counting_verified(adj, k):
        sizes.append(sum(map(len, adj.values())))
        return verified(adj, k)

    def logging_edges_by_rank(G, rank_cap):
        pairs, ends = edges_by_rank(G, rank_cap)
        logs.append(ends)
        return pairs, ends

    monkeypatch.setattr(matching, "_verified_max_matching", counting_verified)
    monkeypatch.setattr(matching, "_edges_by_rank", logging_edges_by_rank)
    rng = random.Random(12)
    above_one = 0
    for _ in range(40):
        inst = _random_instance(rng)
        G = prune_candidates(inst, _random_t(rng))
        sizes.clear()
        logs.clear()
        _mu, rank = bottleneck_matching(G)
        assert len(logs) == 1
        # levels are never empty, so distinct caps have distinct prefixes
        assert len(sizes) == len(set(sizes))
        assert set(sizes) <= set(logs[0][1:])
        above_one += rank > 1
    assert above_one >= 10


# b2 has only a0, b1 reaches a1 at rank 7 and b0 has a new a at every rank
# up to 6: every b has an edge at rank 1, but nothing below 7 matches all three.
_GALLOP_GRAPH = {E(0, 0): 1, E(0, 1): 1, E(0, 2): 1, E(1, 1): 7}
_GALLOP_GRAPH.update({E(a, 0): a - 1 for a in range(3, 8)})


def test_bottleneck_gallops_up_from_a_failing_floor(monkeypatch):
    caps = []
    verified = matching._verified_max_matching

    def logging_verified(adj, k):
        caps.append(sum(map(len, adj.values())))
        return verified(adj, k)

    G = CandidateGraph.from_ranks(3, _GALLOP_GRAPH)
    ends = matching._edges_by_rank(G, G.rank_count)[1]
    expected = _least_rank_by_scan(G)
    monkeypatch.setattr(matching, "_verified_max_matching", logging_verified)
    assert bottleneck_matching(G) == expected
    # the floor 1 fails, the gallop fails at 2 and 4 and holds at the top 7,
    # and the bisection of (4, 7] fails at 5 and 6
    assert [ends.index(size) for size in caps] == [1, 2, 4, 7, 5, 6]


@pytest.mark.parametrize("raise_by", [1, 2])
def test_a_floor_set_too_high_is_caught(monkeypatch, raise_by):
    # rank 2 matches both b and is their floor, below the top rank 4
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 1): 2, E(1, 0): 3, E(0, 1): 4})
    assert bottleneck_matching(G) == ((E(0, 0), E(1, 1)), 2)
    inst = _mk([(0, 0), (5, 0), (-5, 0), (10, 1)], [(0, 0), (10, 0)])
    t = point(1, 0)
    at_t = prune_candidates(inst, t)
    assert bottleneck_matching(at_t)[1] == _floor_of(at_t) == 2 < at_t.rank_count
    floor = matching._rank_floor
    monkeypatch.setattr(matching, "_rank_floor", lambda k, p, e: floor(k, p, e) + raise_by)
    with pytest.raises(ContractViolation, match="bottleneck rank not minimal"):
        bottleneck_matching(G)
    with pytest.raises(ContractViolation, match="bottleneck rank not minimal"):
        diagram.eval_E(inst, t)


def _tie_heavy_instances(rng):
    """Lattice, collinear and co-circular point sets, k = 1, k = n and between."""
    lattice = [(x, y) for x in range(4) for y in range(4)]
    collinear = [(x, 2 * x - 3) for x in range(-4, 6)]
    circle = [(3, 4), (4, 3), (5, 0), (0, 5), (-3, 4), (-4, 3), (-5, 0), (0, -5), (3, -4), (-4, -3)]
    for family in (lattice, collinear, circle):
        for _ in range(12):
            n = rng.randint(1, 6)
            k = rng.choice([1, n, rng.randint(1, n)])
            A = rng.sample(family, n)
            B = rng.sample(family, k)
            yield A, B
            yield [(x * 10**9, y * 10**9) for x, y in A], [(x * 10**9, y * 10**9) for x, y in B]


def _tie_heavy_points(rng, inst):
    """Anchors, points on bisectors of two anchors, and a random rational point."""
    sites = sorted({inst.anchor(e) for e in inst.edges()})
    scale = max(max(abs(p.x), abs(p.y)) for p in sites) or 1
    yield rng.choice(sites)
    for _ in range(3):
        p, q = rng.choice(sites), rng.choice(sites)
        mid = Point((p.x + q.x) / 2, (p.y + q.y) / 2)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        # mid + s * perp(q - p) is equidistant from p and q
        yield Point(mid.x - s * (q.y - p.y), mid.y + s * (q.x - p.x))
    yield Point(scale * Fraction(rng.randint(-40, 40), 7), scale * Fraction(rng.randint(-40, 40), 9))


def test_eval_E_equals_the_graph_search_and_the_oracle_on_tie_heavy_points():
    rng = random.Random(16)
    above_floor = big = 0
    for A, B in _tie_heavy_instances(rng):
        inst = _mk(A, B)
        for t in _tie_heavy_points(rng, inst):
            value, mu = diagram.eval_E(inst, t)
            G = prune_candidates(inst, t)
            graph_mu, rank = bottleneck_matching(G)
            assert mu == graph_mu
            assert (graph_mu, rank) == _least_rank_by_scan(G)
            assert value == brute_force_E(inst, t)[0]
            assert value == max(squared_edge_length(inst, e, t) for e in mu)
            above_floor += rank > _floor_of(G)
            big += value > 2**64
    assert above_floor >= 20 and big >= 50


def test_feasibility_is_monotone_in_the_cap_on_tie_heavy_points():
    # every cap is probed, so a larger cap that loses a complete matching
    # would show here; the least feasible cap is the search's answer
    rng = random.Random(17)
    caps = 0
    for A, B in _tie_heavy_instances(rng):
        inst = _mk(A, B)
        for t in _tie_heavy_points(rng, inst):
            G = prune_candidates(inst, t)
            ok = [len(max_matching(G, r)) == G.k for r in range(1, G.rank_count + 1)]
            assert ok == sorted(ok) and ok[-1]
            assert ok.index(True) + 1 == bottleneck_matching(G)[1]
            caps += len(ok)
    assert caps >= 1000


# -- lexicographic bottleneck -------------------------------------------------


def test_lex_example():
    G = CandidateGraph.from_ranks(
        2,
        {E(0, 0): 1, E(1, 1): 2, E(1, 0): 3, E(0, 1): 4, E(2, 0): 5, E(2, 1): 6},
    )
    mu, ranks = lex_bottleneck_matching(G)
    assert mu == (E(0, 0), E(1, 1))
    assert ranks == (2, 1)


def test_lex_matches_brute_force():
    # Also checks that pruning kept a lex-optimal matching (the candidate
    # sets are supersets of b-minimal sets).
    rng = random.Random(13)
    for _ in range(30):
        inst = _random_instance(rng, n_max=5, k_max=3)
        t = _random_t(rng)
        G = prune_candidates(inst, t)
        mu, ranks = lex_bottleneck_matching(G)
        vec = tuple(
            sorted((squared_edge_length(inst, e, t) for e in mu), reverse=True)
        )
        assert vec == brute_force_lex(inst, t)
        assert ranks == tuple(sorted((G.w(e) for e in mu), reverse=True))


def _reference_rows(ranks):
    """The scalar reference's assignment of every (k, n) rank key."""
    out = []
    for key in ranks.tolist():
        triples = [(b, a, r) for b, row in enumerate(key) for a, r in enumerate(row) if r]
        out.append(reference_assignment(len(key), triples))
    return out


def _assert_equals_reference(ranks):
    got = lex_assignments(ranks.shape[1], ranks.shape[2], ranks)
    assert got.tolist() == [list(a) for a in _reference_rows(ranks)]


def _keys_of_lex_build(monkeypatch, inst):
    """Every rank key ``label_faces_lex`` passes to ``lex_assignments``, and its answers."""
    seen = []

    def spy(k, n, ranks):
        got = lex_assignments(k, n, ranks)
        seen.append((np.array(ranks), got))
        return got

    with monkeypatch.context() as m:
        m.setattr(diagram, "lex_assignments", spy)
        build_diagram(inst, lex=True)
    return seen


def _seeded_instance(seed, n, k, span):
    rng = random.Random(seed)
    pts: set[tuple[int, int]] = set()
    while len(pts) < n + k:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    flat = sorted(pts)
    return _mk(flat[:n], flat[n:])


@pytest.mark.parametrize(
    "seed, n, k, span", [(7, 5, 4, 10), (21, 6, 3, 8), (22, 4, 4, 6)], ids=["bench-lex", "n6-k3", "k-eq-n"]
)
def test_lex_assignments_equal_scalar_reference_on_every_instance_key(monkeypatch, seed, n, k, span):
    # (7, 5, 4, 10) is the benchmark's lex instance; the others add k < n - 1 and k = n.
    calls = _keys_of_lex_build(monkeypatch, _seeded_instance(seed, n, k, span))
    keys = np.concatenate([ranks for ranks, _got in calls])
    assert len({key.tobytes() for key in keys}) == len(keys) > 0  # each key solved once
    want = _reference_rows(keys)
    got = np.concatenate([got for _ranks, got in calls])
    assert got.tolist() == [list(a) for a in want]
    # one call over all keys answers like the slices the labeller used
    assert lex_assignments(k, n, keys).tolist() == got.tolist()


def _tie_heavy_keys(rng, k, n, count, top):
    """Rank keys where every b has at least k candidates, ranks drawn from 1..top."""
    ranks = np.zeros((count, k, n), dtype=np.int64)
    for key in ranks:
        for b in range(k):
            cols = rng.sample(range(n), rng.randint(k, n))
            key[b, cols] = [rng.randint(1, top) for _ in cols]
    return ranks


def test_lex_assignments_equal_scalar_reference_on_tie_heavy_keys(monkeypatch):
    rng = random.Random(1101)
    shapes = [(k, n) for k in range(1, 6) for n in range(k, 9)]
    batches = [_tie_heavy_keys(rng, k, n, 120, rng.randint(1, 4)) for k, n in shapes]
    for ranks in batches:
        _assert_equals_reference(ranks)
    # the same statements on Python ints
    monkeypatch.setattr(matching, "_ASSIGN_INT64_LIMIT", 0)
    for ranks in batches[::4]:
        _assert_equals_reference(ranks)


def test_lex_assignments_past_int64_run_on_python_ints():
    # k = 6, n = 7: ranks up to 42 make costs (k + 1)^rank that pass int64.
    k, n = 6, 7
    rng = random.Random(1102)
    spread = _tie_heavy_keys(rng, k, n, 40, k * n)
    high_ties = _tie_heavy_keys(rng, k, n, 40, 3)
    high_ties[high_ties > 0] += k * n - 3  # ranks 40..42 only
    ranks = np.concatenate([spread, high_ties])
    assert (k + 1) ** int(ranks.max()) > 2**63
    _assert_equals_reference(ranks)


def test_lex_assignments_infeasible_key_raises():
    # both b have a0 as their only candidate
    lone = np.zeros((1, 2, 3), dtype=np.int64)
    lone[0, :, 0] = [1, 2]
    with pytest.raises(NoCompleteMatching):
        lex_assignments(2, 3, lone)
    fine = np.array([[[1, 2, 0], [0, 1, 2]]])
    assert lex_assignments(2, 3, fine).tolist() == [[0, 1]]
    with pytest.raises(NoCompleteMatching):
        lex_assignments(2, 3, np.concatenate([fine, lone]))
    with pytest.raises(NoCompleteMatching):
        lex_assignments(3, 2, np.ones((1, 3, 2), dtype=np.int64))


def test_canonical_complete_matching():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 0): 2, E(0, 1): 3, E(1, 1): 4})
    assert canonical_complete_matching(G, 4) == (E(0, 0), E(1, 1))
    forced = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(0, 1): 2, E(1, 0): 3})
    # b0 cannot take a0 (b1 needs it); the probe forces b0 -> a1.
    assert canonical_complete_matching(forced, 3) == (E(1, 0), E(0, 1))


# -- crossing updates ---------------------------------------------------------


def test_update_rank_swap_improves_matching():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 1): 2, E(2, 1): 3})
    mu = (E(0, 0), E(1, 1))
    g2, mu2 = cross_bisector(G, mu, [(E(1, 1), E(2, 1))])
    assert mu2 == (E(0, 0), E(2, 1))
    assert g2.w(E(2, 1)) == 2 and g2.w(E(1, 1)) == 3
    assert max(g2.w(e) for e in mu2) == 2
    # inputs untouched
    assert G.w(E(2, 1)) == 3 and mu == (E(0, 0), E(1, 1))


def test_update_swap_far_from_bottleneck():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 1): 2, E(2, 0): 3, E(3, 1): 4})
    mu = (E(0, 0), E(1, 1))
    g2, mu2 = cross_bisector(G, mu, [(E(2, 0), E(3, 1))])
    assert mu2 == mu
    assert g2.w(E(3, 1)) == 3 and g2.w(E(2, 0)) == 4


def test_update_same_b_replaces_nonmatching_edge():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 1): 2, E(2, 0): 3, E(3, 1): 4})
    mu = (E(0, 0), E(1, 1))
    g2, mu2 = cross_bisector(G, mu, [(E(2, 0), E(9, 0))])
    assert mu2 == mu
    assert E(2, 0) not in g2.class_of
    assert g2.w(E(9, 0)) == 3
    assert g2.by_b[0] == {E(0, 0), E(9, 0)}


def test_update_same_b_replaces_matching_edge():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(2, 1): 2, E(1, 0): 3, E(3, 1): 4})
    mu = (E(0, 0), E(2, 1))
    g2, mu2 = cross_bisector(G, mu, [(E(0, 0), E(5, 0))])
    assert mu2 == (E(5, 0), E(2, 1))
    assert g2.w(E(5, 0)) == 1
    assert E(0, 0) not in g2.class_of


def test_update_ignores_pairs_outside_candidates():
    G = CandidateGraph.from_ranks(2, {E(0, 0): 1, E(1, 1): 2})
    mu = (E(0, 0), E(1, 1))
    g2, mu2 = cross_bisector(G, mu, [(E(7, 0), E(8, 0))])
    assert mu2 == mu and set(g2.edges()) == set(G.edges())
    g3, mu3 = cross_bisector(G, mu, [(E(7, 0), E(8, 1))])
    assert mu3 == mu and set(g3.edges()) == set(G.edges())


def test_cross_bisector_groups_class_pairs():
    # Two edge pairs witnessing the same class pair: one transposition, not
    # two. Naive per-pair processing would cancel itself out.
    members = {"P": {E(0, 0), E(1, 1)}, "Q": {E(2, 0), E(3, 1)}}
    G = CandidateGraph(2, [["P"], ["Q"]], members, class_key=lambda e: ("edge", e))
    mu = (E(0, 0), E(1, 1))
    pairs = [(E(0, 0), E(2, 0)), (E(1, 1), E(3, 1))]
    g2, mu2 = cross_bisector(G, mu, pairs)
    assert g2.w(E(2, 0)) == 1 and g2.w(E(0, 0)) == 2
    assert mu2 == (E(2, 0), E(3, 1))


def _random_rank_graph(rng):
    # |E_b| >= k per b, as pruning guarantees; without that floor the
    # crossing rules are not meant to hold.
    k = rng.randint(1, 4)
    n_a = k + rng.randint(0, 3)
    edges = set()
    for b in range(k):
        edges.update(E(a, b) for a in rng.sample(range(n_a), k))
    for a in range(n_a):
        for b in range(k):
            if rng.random() < 0.4:
                edges.add(E(a, b))
    order = sorted(edges)
    rng.shuffle(order)
    return CandidateGraph.from_ranks(k, {e: i + 1 for i, e in enumerate(order)}), n_a


def test_update_sequences_match_recompute():
    rng = random.Random(17)
    steps = 0
    for _ in range(60):
        G, n_a = _random_rank_graph(rng)
        try:
            mu, _ = bottleneck_matching(G)
        except NoCompleteMatching:
            continue
        for _ in range(5):
            if G.rank_count >= 2 and rng.random() < 0.6:
                i = rng.randrange(G.rank_count - 1)
                x = min(G.members[G.levels[i][0]])
                y = min(G.members[G.levels[i + 1][0]])
                G, mu = cross_bisector(G, mu, [(x, y)])
            else:
                b = rng.randrange(G.k)
                x = max(G.by_b[b], key=lambda e: (G.w(e), e))
                free = [a for a in range(n_a + 2) if E(a, b) not in G.class_of]
                y = E(rng.choice(free), b)
                G, mu = cross_bisector(G, mu, [(x, y)])
            fresh = CandidateGraph.from_ranks(G.k, {e: G.w(e) for e in G.edges()})
            _, ref_rank = bottleneck_matching(fresh)
            assert len(mu) == G.k
            assert max(G.w(e) for e in mu) == ref_rank
            matching_map(mu)
            steps += 1
    assert steps >= 250


def _assert_level_index(G):
    G.check_invariants()
    for i, level in enumerate(G.levels):
        for key in level:
            assert G.level_of(key) == i
    assert len(G._level_index) == sum(map(len, G.levels))


def test_level_index_follows_every_crossing():
    # Each crossing works on a clone: the graph it starts from keeps its
    # levels and its index, and the clone's index follows the inserted,
    # removed and swapped levels.
    rng = random.Random(1_3401)
    crossings = 0
    renamed = 0  # crossings that inserted one class's level and removed another's
    for _ in range(8):
        inst = _random_instance(rng, n_max=5)
        bis, arr = diagram.reduced_arrangement(inst)
        if arr.n_cells < 2:
            continue
        G = prune_candidates(inst, arr.cell_centroid(0))
        mu, _ = bottleneck_matching(G)
        cid = 0
        for _ in range(50):
            nbr, eid = rng.choice(arr.cell_neighbors(cid))
            before = [list(level) for level in G.levels]
            G2, mu = cross_bisector(G, mu, bis[arr.edge_line(eid)].edge_pairs)
            assert G.levels == before
            _assert_level_index(G)
            _assert_level_index(G2)
            renamed += set(G2._level_index) != set(G._level_index)
            G, cid = G2, nbr
            crossings += 1
    assert crossings >= 200 and renamed >= 10
    G._level_index[G.levels[0][0]] = 1
    with pytest.raises(ContractViolation):
        G.check_invariants()


def test_touching_is_empty_exactly_when_a_crossing_changes_nothing():
    # Pair lists mix pairs that touch no candidate state (a different-b pair
    # with at most one candidate, a same-b pair with none) and, half the
    # time, one crossing that does: adjacent ranks or a per-b boundary move.
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(300):
        G, n_a = _random_rank_graph(rng)
        try:
            mu, _ = bottleneck_matching(G)
        except NoCompleteMatching:
            continue
        inside = sorted(G.edges())
        outside = [
            E(a, b) for b in range(G.k) for a in range(n_a + 2) if E(a, b) not in G.class_of
        ]
        pairs = []
        for _ in range(rng.randint(0, 4)):
            y = rng.choice(outside)
            others = [e for e in inside + outside if e.b != y.b]
            same = [e for e in outside if e.b == y.b and e != y]
            if others and (not same or rng.random() < 0.6):
                pairs.append((rng.choice(others), y))
            elif same:
                pairs.append((rng.choice(same), y))
        if rng.random() < 0.5:
            if G.rank_count >= 2 and rng.random() < 0.5:
                i = rng.randrange(G.rank_count - 1)
                x = min(G.members[G.levels[i][0]])
                y = min(G.members[G.levels[i + 1][0]])
                crossing = (x, y)
            else:
                b = rng.randrange(G.k)
                x = max(G.by_b[b], key=lambda e: (G.w(e), e))
                y = rng.choice([e for e in outside if e.b == b])
                crossing = (x, y)
            pairs.insert(rng.randint(0, len(pairs)), crossing)
        g2, mu2 = cross_bisector(G, mu, pairs)
        unchanged = (
            g2.levels == G.levels
            and set(g2.edges()) == set(G.edges())
            and g2.members == G.members
            and mu2 == mu
        )
        assert bool(G.touching(pairs)) is not unchanged
        seen[unchanged] += 1
    assert min(seen.values()) >= 60, seen
