"""Bottleneck and lexicographic assignment on rank-weighted candidate graphs.

The candidate graph of a translation keeps, per matched-side point b, the k
shortest edges incident to b (extended over ties), so a complete matching
optimal for the bottleneck or lexicographic-bottleneck cost always survives
inside it. Edge weights are dense ranks over the distinct squared lengths;
edges of equal length share a rank. Crossing a bisector in translation space
changes the graph by one of two local moves, read off each tying pair
(e1, e2): when the edges share b and one is a candidate, that b's candidate
boundary moves; when both are candidates, their two ranks transpose. The
matching follows with one augmentation or one thresholded rematch; see
``cross_bisector``.

The bottleneck search runs on the candidate edges in rank order, whether
they come from a graph (``bottleneck_matching``) or straight from the integer
length keys of one translation (``bottleneck_from_keys``, what ``eval_E``
calls). No cap below the floor, the first rank at which every b has an edge,
can match every b, and the answer nearly always sits at the floor or just
above it. So the floor is probed first, the probes gallop up from it while
they fail, and the last gap is bisected. Each probe is a verified maximum
matching; the witness is the one at the least feasible rank.

Hopcroft-Karp's first phase, from the empty matching, is a plain loop: each
b in order takes its least free a. When that matches every b, the probe
ends there; otherwise the later phases run, and an independent
augmenting-path search checks their incomplete result. The recursive
searches are module-level functions, not closures, so a call leaves no
reference cycle for the garbage collector.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import Callable, Hashable, Iterable, Sequence

import numpy as _np

from .geom import ContractViolation, EdgeRef, Instance, Point, squared_length_keys


class NoCompleteMatching(Exception):
    """The candidate graph cannot match every b (precondition failure)."""


Matching = tuple[EdgeRef, ...]


def matching_from_map(assign: dict[int, int]) -> Matching:
    """Canonical matching value: EdgeRefs sorted by b index."""
    return tuple(EdgeRef(assign[b], b) for b in sorted(assign))


def matching_map(mu: Matching) -> dict[int, int]:
    out: dict[int, int] = {}
    for e in mu:
        if e.b in out:
            raise ContractViolation(f"b index {e.b} matched twice")
        out[e.b] = e.a
    if len({e.a for e in mu}) != len(mu):
        raise ContractViolation("a index matched twice")
    return out


class CandidateGraph:
    """Rank-weighted bipartite graph on the per-b candidate edge sets.

    ``levels`` lists equivalence-class keys in increasing squared-length
    order; the rank of an edge is the 1-based index of its class's level.
    ``class_key`` names the class of any edge, candidate or not; for an
    instance it is the integer anchor ``rows[b][a]`` of ``inst.int_anchors``.
    A level holds more than one class only when the construction translation
    ties two inequivalent edges exactly (samples on bisectors); the swap
    machinery requires singleton levels, which cell interiors guarantee.
    ``levels`` changes only through the level methods below, which keep the
    key -> level index map of ``level_of`` up to date.
    """

    __slots__ = ("k", "levels", "members", "class_of", "by_b", "class_key", "_level_index")

    def __init__(
        self,
        k: int,
        levels: list[list[Hashable]],
        members: dict[Hashable, set[EdgeRef]],
        class_key: Callable[[EdgeRef], Hashable],
    ) -> None:
        self.k = k
        self.levels = levels
        self.members = members
        self.class_key = class_key
        self.class_of: dict[EdgeRef, Hashable] = {}
        self.by_b: dict[int, set[EdgeRef]] = {b: set() for b in range(k)}
        for key, edges in members.items():
            for e in edges:
                self.class_of[e] = key
                self.by_b[e.b].add(e)
        self._level_index: dict[Hashable, int] = {}
        self._reindex(0)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_ranks(
        cls, k: int, ranked_edges: dict[EdgeRef, int]
    ) -> "CandidateGraph":
        """Test helper: explicit ranks, every rank its own class."""
        by_rank: dict[int, set[EdgeRef]] = {}
        for e, r in ranked_edges.items():
            by_rank.setdefault(r, set()).add(e)
        ranks = sorted(by_rank)
        levels: list[list[Hashable]] = [[("rank", r)] for r in ranks]
        members = {("rank", r): by_rank[r] for r in ranks}
        return cls(k, levels, members, class_key=lambda e: ("edge", e))

    def clone(self) -> "CandidateGraph":
        g = object.__new__(CandidateGraph)
        g.k = self.k
        g.levels = [list(level) for level in self.levels]
        g.members = {key: set(v) for key, v in self.members.items()}
        g.class_key = self.class_key
        g.class_of = dict(self.class_of)
        g.by_b = {b: set(v) for b, v in self.by_b.items()}
        g._level_index = dict(self._level_index)
        return g

    # -- queries -----------------------------------------------------------

    @property
    def rank_count(self) -> int:
        return len(self.levels)

    def edges(self) -> Iterable[EdgeRef]:
        return self.class_of.keys()

    def level_of(self, key: Hashable) -> int:
        return self._level_index[key]

    def w(self, e: EdgeRef) -> int:
        """Rank weight of a candidate edge (1-based)."""
        return self.level_of(self.class_of[e]) + 1

    def longest_of(self, mu: Matching) -> EdgeRef:
        return max(mu, key=lambda e: (self.w(e), e))

    def check_invariants(self) -> None:
        for b, edges in self.by_b.items():
            if len(edges) < self.k:
                raise ContractViolation(f"|E_b| < k for b={b}")
        for level in self.levels:
            if not level:
                raise ContractViolation("empty rank level")
            for key in level:
                if not self.members.get(key):
                    raise ContractViolation("empty class in a level")
        index = {key: i for i, level in enumerate(self.levels) for key in level}
        if index != self._level_index:
            raise ContractViolation("level index out of date")

    def touching(
        self, pairs: Iterable[tuple[EdgeRef, EdgeRef]]
    ) -> list[tuple[EdgeRef, EdgeRef, bool, bool]]:
        """The tying pairs ``(e1, e2)`` of a crossing that change this graph.

        A same-b pair (equal b) touches it when either edge is a candidate, a
        different-b pair only when both are. Each comes as ``(e1, e2, in1,
        in2)``, ``in`` telling whether the edge is a candidate.
        ``cross_bisector`` applies exactly these, so with none the crossing
        changes neither graph nor matching.
        """
        out = []
        for e1, e2 in pairs:
            in1, in2 = e1 in self.class_of, e2 in self.class_of
            if in1 and in2 or (e1.b == e2.b and (in1 or in2)):
                out.append((e1, e2, in1, in2))
        return out

    # -- mutations used by crossings ----------------------------------------

    def _singleton_level_index(self, key: Hashable) -> int:
        i = self.level_of(key)
        if len(self.levels[i]) != 1:
            raise ContractViolation("rank tie across classes during a swap")
        return i

    def _reindex(self, start: int) -> None:
        """Point the index of every key in ``levels[start:]`` at its level."""
        for i in range(start, len(self.levels)):
            for key in self.levels[i]:
                self._level_index[key] = i

    def _insert_level(self, i: int, key: Hashable) -> None:
        self.levels.insert(i, [key])
        self._reindex(i)

    def _remove_key(self, key: Hashable) -> None:
        """Drop ``key`` from its level, and the level once it is empty."""
        i = self._level_index.pop(key)
        self.levels[i].remove(key)
        if not self.levels[i]:
            del self.levels[i]
            self._reindex(i)

    def _swap_levels(self, i: int, j: int) -> None:
        self.levels[i], self.levels[j] = self.levels[j], self.levels[i]
        for t in (i, j):
            for key in self.levels[t]:
                self._level_index[key] = t


def prune_candidates(inst: Instance, t: Point) -> CandidateGraph:
    """Candidate graph at translation ``t``: k shortest edges per b, tie-closed.

    Ranks are dense over the distinct squared lengths occurring in the kept
    union, so inequivalent edges share a rank exactly when ``t`` lies on
    their bisector. Lengths are compared as their integer keys Q of
    ``squared_length_keys``, which order them exactly as the lengths.
    """
    keys = squared_length_keys(inst, t)[0]
    k = inst.k
    _M, anchors = inst.int_anchors
    # equal anchors a - b mean equal difference vectors: one class each
    classes: dict[tuple[int, int], tuple[int, list[EdgeRef]]] = {}
    for b in range(k):
        for value, a in sorted(_k_shortest(keys[b], k)):
            classes.setdefault(anchors[b][a], (value, []))[1].append(EdgeRef(a, b))

    distinct = sorted({value for value, _ in classes.values()})
    index = {v: i for i, v in enumerate(distinct)}
    members = {anchor: set(edges) for anchor, (_, edges) in classes.items()}
    levels: list[list[Hashable]] = [[] for _ in distinct]
    # the diff b - a is -anchor / M: descending anchors are ascending diffs
    for anchor in sorted(classes, reverse=True):
        levels[index[classes[anchor][0]]].append(anchor)
    return CandidateGraph(k, levels, members, class_key=lambda e: anchors[e.b][e.a])


def _k_shortest(row: Sequence[int], k: int) -> list[tuple[int, int]]:
    """``(value, a)`` of b's candidate edges in order of a: the k least keys, ties kept.

    ``row[a]`` is the integer key of edge (a, b), as ``squared_length_keys``
    gives it.
    """
    threshold = sorted(row)[k - 1]
    return [(value, a) for a, value in enumerate(row) if value <= threshold]


# -- maximum matching ---------------------------------------------------------


def _edges_by_rank(
    G: CandidateGraph, rank_cap: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The candidate edges of rank <= rank_cap as ``(b, a)``, lowest rank first.

    ``ends[r]`` is the number of edges of rank <= r, so ``pairs[: ends[r]]``
    are the edges within a lower cap ``r``.
    """
    pairs: list[tuple[int, int]] = []
    ends = [0]
    for level in G.levels[: max(rank_cap, 0)]:
        for key in level:
            pairs.extend((e.b, e.a) for e in G.members[key])
        ends.append(len(pairs))
    return pairs, ends


def _adjacency_of(k: int, pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {b: [] for b in range(k)}
    for b, a in pairs:
        adj[b].append(a)
    for row in adj.values():
        row.sort()
    return adj


def _adjacency(G: CandidateGraph, rank_cap: int) -> dict[int, list[int]]:
    return _adjacency_of(G.k, _edges_by_rank(G, rank_cap)[0])


def _hopcroft_karp(adj: dict[int, list[int]], k: int) -> dict[int, int]:
    """Maximum matching; returns the b -> a assignment.

    From the empty matching every b is at layer 0, so the first phase gives
    each b in order its least free a. That pass runs as a plain loop, and
    when it matches every b no later phase can add an edge.
    """
    match_b: dict[int, int | None] = {b: None for b in range(k)}
    match_a: dict[int, int] = {}
    for b in range(k):
        for a in adj[b]:
            if a not in match_a:
                match_b[b] = a
                match_a[a] = b
                break
    if len(match_a) == k:
        return match_b  # every b is matched
    while True:
        dist: dict[int, float] = {}
        queue: deque[int] = deque()
        for b in range(k):
            if match_b[b] is None:
                dist[b] = 0
                queue.append(b)
        found = False
        while queue:
            b = queue.popleft()
            for a in adj[b]:
                nb = match_a.get(a)
                if nb is None:
                    found = True
                elif nb not in dist:
                    dist[nb] = dist[b] + 1
                    queue.append(nb)
        if not found:
            break
        for b in range(k):
            if match_b[b] is None:
                _hk_augment(adj, match_b, match_a, dist, b)
    return {b: a for b, a in match_b.items() if a is not None}


def _hk_augment(
    adj: dict[int, list[int]],
    match_b: dict[int, int | None],
    match_a: dict[int, int],
    dist: dict[int, float],
    b: int,
) -> bool:
    """One layered augmenting-path search of a Hopcroft-Karp phase, from ``b``."""
    for a in adj[b]:
        nb = match_a.get(a)
        if nb is None or (
            dist.get(nb) == dist[b] + 1 and _hk_augment(adj, match_b, match_a, dist, nb)
        ):
            match_b[b] = a
            match_a[a] = b
            return True
    dist[b] = math.inf
    return False


def _kuhn_augment(
    adj: dict[int, list[int]],
    match_a: dict[int, int],
    match_b: dict[int, int],
    u: int,
    seen: set[int],
) -> bool:
    """One augmenting-path attempt from exposed ``u`` (simple DFS); ``seen`` starts empty."""
    for a in adj[u]:
        if a in seen:
            continue
        seen.add(a)
        if a not in match_a or _kuhn_augment(adj, match_a, match_b, match_a[a], seen):
            match_a[a] = u
            match_b[u] = a
            return True
    return False


def max_matching(G: CandidateGraph, rank_cap: int) -> Matching:
    """Maximum matching among edges of rank <= rank_cap (Hopcroft-Karp).

    An incomplete result is verified by a second, independent
    augmenting-path search before returning; a success there would be a bug
    in this module.
    """
    return _verified_max_matching(_adjacency(G, rank_cap), G.k)


def _verified_max_matching(adj: dict[int, list[int]], k: int) -> Matching:
    """``_hopcroft_karp``'s matching; an incomplete one is checked for an augmenting path."""
    assign = _hopcroft_karp(adj, k)
    match_a = {a: b for b, a in assign.items()}
    for b in range(k):
        if b not in assign and _kuhn_augment(adj, match_a, dict(assign), b, set()):
            raise ContractViolation("augmenting path found after maximum matching")
    return matching_from_map(assign)


def bottleneck_matching(G: CandidateGraph) -> tuple[Matching, int]:
    """Complete matching minimizing the maximum edge rank, plus that rank.

    The edges are put in rank order once; ``_bottleneck_search`` probes
    prefixes of that order.
    """
    pairs, ends = _edges_by_rank(G, G.rank_count)
    return _bottleneck_search(G.k, pairs, ends)


def bottleneck_from_keys(keys: Sequence[Sequence[int]]) -> tuple[Matching, int]:
    """``bottleneck_matching(prune_candidates(inst, t))``, without the graph.

    ``keys[b][a]`` is any integer key of edge (a, b) that one strictly
    increasing map takes to its squared length at ``t``, such as the Q of
    ``squared_length_keys`` that ``eval_E`` passes. The candidate edges are
    then those of ``prune_candidates`` and their ranks are its dense ranks
    over the distinct values, so the search sees the same edges at every cap
    and returns the same matching and rank. The candidates of all b are
    sorted once, and a new rank starts wherever the value changes.
    """
    k = len(keys)
    edges = sorted((value, b, a) for b, row in enumerate(keys) for value, a in _k_shortest(row, k))
    pairs: list[tuple[int, int]] = []
    ends = []
    last = None
    for value, b, a in edges:
        if value != last:
            ends.append(len(pairs))
            last = value
        pairs.append((b, a))
    ends.append(len(pairs))
    return _bottleneck_search(k, pairs, ends)


def _rank_floor(k: int, pairs: Sequence[tuple[int, int]], ends: Sequence[int]) -> int:
    """The first rank at which every b has an edge; no lower cap matches every b."""
    seen: set[int] = set()
    for i, (b, _a) in enumerate(pairs):
        seen.add(b)
        if len(seen) == k:
            return bisect_right(ends, i)
    raise NoCompleteMatching("some b index has no candidate edges")


def _bottleneck_search(
    k: int, pairs: Sequence[tuple[int, int]], ends: Sequence[int]
) -> tuple[Matching, int]:
    """The least rank r at which ``pairs[: ends[r]]`` match every b, and that matching.

    ``pairs`` are the edges as ``(b, a)``, lowest rank first, and ``ends[r]``
    is the number of edges of rank <= r. The floor (``_rank_floor``) is
    probed first. While a probe fails, the next one gallops up by 1, 2, 4, ...
    ranks, capped at the top rank; then the gap between the last failing and
    the first feasible probe is bisected. Each probe is one verified maximum
    matching, and the witness is the one at the least feasible rank, so it
    does not depend on the probe order.

    A self-check runs on every call without trusting the floor: the rank
    below the answer must not match every b. If it was not probed, some b
    must lack a pair there, or else it is probed. Feasibility is monotone in
    the cap because a larger cap only adds edges, and the probes never test
    it again: the gallop stops at its first feasible probe, and the
    bisection probes only between the last failure and the current answer.
    """
    top = len(ends) - 1
    probes: dict[int, Matching] = {}

    def feasible(r: int) -> bool:
        probes[r] = _verified_max_matching(_adjacency_of(k, pairs[: ends[r]]), k)
        return len(probes[r]) == k

    r = _rank_floor(k, pairs, ends)
    failed, step = r - 1, 1
    while not feasible(r):
        if r == top:
            raise NoCompleteMatching("no complete matching in the candidate graph")
        failed, r, step = r, min(r + step, top), 2 * step
    while r - failed > 1:
        mid = (failed + r) // 2
        if feasible(mid):
            r = mid
        else:
            failed = mid
    below = r - 1
    if below >= 1 and below not in probes and len({b for b, _a in pairs[: ends[below]]}) == k:
        feasible(below)
    if len(probes.get(below, ())) == k:
        raise ContractViolation("bottleneck rank not minimal")
    return probes[r], r


def canonical_complete_matching(G: CandidateGraph, rank_cap: int) -> Matching:
    """The complete matching within the cap whose (b, a) pair list is lex-least.

    Used where labels should not depend on search order. Greedy per b with a
    feasibility probe per candidate a.
    """
    used_a: set[int] = set()
    chosen: dict[int, int] = {}
    adj = _adjacency(G, rank_cap)

    def completable() -> bool:
        rest = {
            b: [a for a in adj[b] if a not in used_a]
            for b in range(G.k)
            if b not in chosen
        }
        if not rest:
            return True
        assign = _hopcroft_karp({i: rest[b] for i, b in enumerate(sorted(rest))}, len(rest))
        return len(assign) == len(rest)

    for b in range(G.k):
        placed = False
        for a in adj[b]:
            if a in used_a:
                continue
            chosen[b] = a
            used_a.add(a)
            if completable():
                placed = True
                break
            del chosen[b]
            used_a.discard(a)
        if not placed:
            raise NoCompleteMatching(f"no completion for b index {b}")
    return matching_from_map(chosen)


# -- lexicographic bottleneck -------------------------------------------------


_ASSIGN_INT64_LIMIT = 1 << 62  # largest bound on |values| that stays in int64


def lex_assignments(k: int, n: int, ranks) -> _np.ndarray:
    """Lex-bottleneck assignment of every row of a ``(keys, k * n)`` rank array.

    ``(keys, k, n)`` is read the same way. Entry ``b * n + a`` of a row is the 1-based rank of candidate edge (a, b),
    0 for a non-candidate. Each row is a min-cost assignment with edge cost
    (k+1)^rank: a matching has at most k edges, so cost order is the lex
    order of its sorted rank vector. Non-candidates cost the row's
    ``infinity`` = (k+1)^(max rank + 1) * (k+1).

    The Hungarian method with potentials runs in lockstep over all rows:
    row i of every key is added in the same phase, and each step runs on the
    whole contiguous arrays. A key whose phase has closed takes ``delta`` 0
    there and keeps its potentials and ``j0``; the step may rewrite its
    ``minv`` and ``way`` only in free columns, which its walk back never
    reads. Per key it is the scalar method exactly: ``minv`` moves on strict
    ``<``, ``delta`` and ``j1`` come from the first minimum over unused
    columns, and the augmenting path is walked back the same way, so tied
    optima resolve the same way. Columns are all n values of a. A column without candidates costs ``infinity`` from every
    row and is never the minimum while a finite augmenting path exists.

    Values stay in int64 while ``(2 k^2 + 2) * huge`` fits, ``huge`` being
    the largest ``infinity * (k + 2)``: reduced costs and every ``delta`` lie
    in [0, huge], a phase takes at most k steps, so the potentials move by at
    most k^2 * huge in all. Beyond that the same statements run on Python
    ints. Returns the a of every b, shape ``(keys, k)``. Raises
    NoCompleteMatching if some row has no assignment avoiding non-candidates.
    """
    ranks = _np.asarray(ranks).reshape(-1, k, n)
    B = len(ranks)
    if n < k:
        raise NoCompleteMatching("fewer columns than rows to assign")
    base = k + 1
    top = ranks.max(axis=(1, 2)).astype(_np.int64)
    R = int(top.max(initial=0))
    bound = (2 * k * k + 2) * base ** (R + 1) * (k + 1) * (k + 2)
    dtype = _np.int64 if bound <= _ASSIGN_INT64_LIMIT else object
    powers = _np.array([base**r for r in range(R + 2)], dtype=dtype)
    infinity = powers[top + 1] * (k + 1)
    cost = _np.where(ranks > 0, powers[ranks], infinity[:, None, None])  # (B, k, n)
    huge = (infinity * (k + 2))[:, None]

    u = _np.zeros((B, k + 1), dtype=dtype)
    v = _np.zeros((B, n + 1), dtype=dtype)
    p = _np.zeros((B, n + 1), dtype=_np.int64)  # p[j] = row matched to column j
    way = _np.zeros((B, n + 1), dtype=_np.int64)
    keys = _np.arange(B)
    for i in range(1, k + 1):
        p[:, 0] = i
        j0 = _np.zeros(B, dtype=_np.int64)
        minv = _np.repeat(huge, n + 1, axis=1)
        used = _np.zeros((B, n + 1), dtype=bool)
        in_tree = _np.zeros((B, k + 1), dtype=bool)  # rows p[j] of used columns
        is_open = _np.ones((B, 1), dtype=bool)  # the keys whose phase is open
        while is_open.any():
            # a closed key sits on its free column j0, p[j0] = 0, and takes
            # delta 0 below, so its u, v and j0 stay. Its minv and way may
            # change in free columns only: its walk back reads way on used
            # columns alone, and minv is reset each phase
            used[keys, j0] = True
            i0 = p[keys, j0]
            in_tree[keys, i0] = True
            cur = cost[keys, i0 - 1] - u[keys, i0][:, None] - v[:, 1:]
            free = ~used[:, 1:]
            mv = minv[:, 1:]
            better = free & (cur < mv)
            mv = _np.where(better, cur, mv)
            way[:, 1:] = _np.where(better, j0[:, None], way[:, 1:])
            masked = _np.where(free, mv, huge)
            j1 = masked.argmin(axis=1)
            delta = masked[keys, j1][:, None]
            # as in the scalar scan, j1 stays 0 unless some minv is below huge
            j1 = _np.where(delta[:, 0] < huge[:, 0], j1 + 1, 0)
            delta = _np.where(is_open, delta, 0)
            u += in_tree * delta
            v -= used * delta
            minv[:, 1:] = mv - free * delta
            j0 = _np.where(is_open[:, 0], j1, j0)
            is_open &= p[keys, j0][:, None] != 0
        back = _np.flatnonzero(j0)
        while back.size:
            j = j0[back]
            j1 = way[back, j]
            p[back, j] = p[back, j1]
            j0[back] = j1
            back = back[j1 != 0]
    keys, cols = _np.nonzero(p[:, 1:])
    assign = _np.full((B, k), -1, dtype=_np.int64)
    assign[keys, p[keys, cols + 1] - 1] = cols
    if (assign < 0).any() or not (
        _np.take_along_axis(ranks, assign[:, :, None], axis=2) > 0
    ).all():
        raise NoCompleteMatching("no assignment avoids forbidden pairs")
    return assign


def lex_bottleneck_matching(G: CandidateGraph) -> tuple[Matching, tuple[int, ...]]:
    """Complete matching with lexicographically least sorted-decreasing ranks.

    Exact, through ``lex_assignments`` on the graph's one rank row.
    """
    edges = list(G.edges())
    if len({e.a for e in edges}) < G.k:
        raise NoCompleteMatching("fewer candidate a vertices than k")
    n = max(e.a for e in edges) + 1
    row = _np.zeros(G.k * n, dtype=_np.int64)
    for e in edges:
        row[e.b * n + e.a] = G.w(e)
    assign = lex_assignments(G.k, n, row)[0].tolist()
    mu = matching_from_map(dict(enumerate(assign)))
    ranks = tuple(sorted((G.w(e) for e in mu), reverse=True))
    return mu, ranks


# -- crossing updates ---------------------------------------------------------

def _augment_exposed(
    G: CandidateGraph, partial: dict[int, int], exposed_b: int, cap: int
) -> dict[int, int] | None:
    adj = _adjacency(G, cap)
    match_a = {a: b for b, a in partial.items()}
    match_b = dict(partial)
    if _kuhn_augment(adj, match_a, match_b, exposed_b, set()):
        return match_b
    return None


def _cross_class_pair(
    G: CandidateGraph,
    mu_map: dict[int, int],
    membership: list[tuple[EdgeRef, EdgeRef]],
    swap_keys: tuple[Hashable, Hashable] | None,
) -> dict[int, int]:
    """Apply one class pair's crossing to ``G`` (mutated) and the matching.

    ``membership`` holds (leaving, entering) same-b pairs and, when not
    empty, decides the move; otherwise ``swap_keys`` names the two candidate
    classes whose ranks transpose.
    """
    if membership:
        exiting_key = G.class_of[membership[0][0]]
        entering_key = G.class_key(membership[0][1])
        for x, y in membership:
            if G.class_of.get(x) != exiting_key or G.class_key(y) != entering_key:
                raise ContractViolation("inconsistent classes in one crossing")
        if entering_key not in G.members:
            # The entering class sits directly above the exiting one on this
            # side of the bisector; the swap below moves it underneath.
            i = G._singleton_level_index(exiting_key)
            G._insert_level(i + 1, entering_key)
            G.members[entering_key] = set()
        for x, y in membership:
            G.members[exiting_key].discard(x)
            del G.class_of[x]
            G.by_b[x.b].discard(x)
            G.class_of[y] = entering_key
            G.members[entering_key].add(y)
            G.by_b[y.b].add(y)
        survivor = bool(G.members[exiting_key])
        if not survivor:
            del G.members[exiting_key]
            G._remove_key(exiting_key)
        lower_key = entering_key
        if survivor:
            i = G._singleton_level_index(exiting_key)
            j = G._singleton_level_index(entering_key)
            if j != i + 1:
                raise ContractViolation("entering class not directly above exiting")
            G._swap_levels(i, j)
    else:
        if swap_keys is None:
            raise ContractViolation("a different-b crossing needs its two class keys")
        key1, key2 = swap_keys
        i = G._singleton_level_index(key1)
        j = G._singleton_level_index(key2)
        if abs(i - j) != 1:
            raise ContractViolation("crossing classes not rank-adjacent")
        G._swap_levels(i, j)
        lower_key = G.levels[min(i, j)][0]

    # Matching maintenance. First restore completeness after removals.
    exposed: list[int] = []
    for x, _ in membership:
        if mu_map.get(x.b) == x.a:
            del mu_map[x.b]
            exposed.append(x.b)
    for b in sorted(exposed):
        cap = max(
            [G.w(EdgeRef(ma, mb)) for mb, ma in mu_map.items()]
            + [G.level_of(entering_key) + 1],
        )
        result = _augment_exposed(G, mu_map, b, cap)
        if result is None:
            result = _augment_exposed(G, mu_map, b, cap + 1)
        if result is None:
            raise ContractViolation("lost completeness after a candidate swap")
        mu_map = result

    if len(mu_map) != G.k:
        raise ContractViolation("matching incomplete after crossing")

    # Rank transposition may let the matching drop below its old bottleneck:
    # only possible when the longest edge sits directly above the lower class.
    j_low = G.level_of(lower_key) + 1
    longest_rank = max(G.w(EdgeRef(a, b)) for b, a in mu_map.items())
    if longest_rank == j_low + 1:
        candidate = max_matching(G, j_low)
        if len(candidate) == G.k:
            mu_map = matching_map(candidate)
    return mu_map


def cross_bisector(
    G: CandidateGraph,
    mu: Matching,
    pairs: Sequence[tuple[EdgeRef, EdgeRef]],
) -> tuple[CandidateGraph, Matching]:
    """Carry a bottleneck matching across one bisector crossing.

    ``pairs`` are every edge pair ``(e1, e2)`` whose lengths tie on the
    crossed line. For a same-b pair with exactly one edge in the candidate
    set, the contained edge leaves and the other enters (the per-b candidate
    boundary moves); a removed matching edge is repaired by one augmentation
    capped near the old bottleneck rank. For a pair with both edges present
    the two adjacent ranks transpose, and the matching is rethresholded
    exactly when its longest rank sits just above the transposition (the
    only case in which the bottleneck can improve).

    Pairs are grouped by the (unordered) pair of equivalence classes they
    connect; each class pair crosses once, no matter how many edge pairs
    witness it. Distinct class pairs on one line never interact (their rank
    positions are disjoint), so groups apply sequentially. Returns fresh
    values; inputs are not mutated.
    """
    if len(mu) != G.k:
        raise ContractViolation("matching must be complete before a crossing")
    g = G.clone()
    mu_map = matching_map(mu)
    groups: dict[frozenset, dict] = {}
    for e1, e2, in1, in2 in g.touching(pairs):
        key1 = g.class_of[e1] if in1 else g.class_key(e1)
        key2 = g.class_of[e2] if in2 else g.class_key(e2)
        group = groups.setdefault(
            frozenset((key1, key2)), {"membership": [], "keys": None}
        )
        if in1 != in2:
            group["membership"].append((e1, e2) if in1 else (e2, e1))
        else:
            group["keys"] = (key1, key2)
    for group in groups.values():
        mu_map = _cross_class_pair(g, mu_map, group["membership"], group["keys"])
    return g, matching_from_map(mu_map)
