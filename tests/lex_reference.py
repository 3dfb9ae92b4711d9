"""Per-face reference for the array lex labeller in ``diagram``.

``label_faces_lex`` labels all faces at once from integer arrays and calls
the assignment once per distinct rank key. This is the per-face loop it
replaced: for every face it ranks each b's candidates at the face sample in
Python ints, builds the sorted key tuple and the label. It scans every
candidate (the loop's exact path, without its float prefilter, which only
bounded the work), so the differential tests compare against code that
shares no array step with the library's.

``assignment_by_cost`` and ``lex_cost`` are the scalar Hungarian method the
library's lockstep ``lex_assignments`` replaced; they solve one key at a time
over its candidate columns only.
"""

from typing import Sequence

from botmatch.arrangement import Arrangement, FaceRef
from botmatch.diagram import CellLabel, LexLabel
from botmatch.geom import Instance
from botmatch.matching import NoCompleteMatching, matching_from_map


def assignment_by_cost(cost: list[list[int]], infinity: int) -> list[int]:
    """Minimum-cost row-to-column assignment (Hungarian with potentials).

    ``cost`` is rows x cols with len(rows) <= len(cols); entries are exact
    integers, ``infinity`` marks forbidden pairs. Returns the matched column
    per row. Raises NoCompleteMatching if only forbidden assignments exist.
    """
    k = len(cost)
    n_cols = len(cost[0]) if cost else 0
    if n_cols < k:
        raise NoCompleteMatching("fewer columns than rows to assign")
    u = [0] * (k + 1)
    v = [0] * (n_cols + 1)
    way = [0] * (n_cols + 1)
    p = [0] * (n_cols + 1)  # p[j] = row matched to column j (1-based rows)
    huge = infinity * (k + 2)
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv = [huge] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = huge
            j1 = 0
            row = cost[i0 - 1]
            ui = u[i0]
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = [-1] * k
    for j in range(1, n_cols + 1):
        if p[j]:
            cols[p[j] - 1] = j - 1
    if any(c < 0 for c in cols) or any(
        cost[i][c] >= infinity for i, c in enumerate(cols)
    ):
        raise NoCompleteMatching("no assignment avoids forbidden pairs")
    return cols


def lex_cost(
    k: int, triples: Sequence[tuple[int, int, int]]
) -> tuple[list[list[int]], int, list[int]]:
    """Lex-bottleneck as min-cost assignment over ``(b, a, rank)`` triples.

    Edge cost (k+1)^rank in big integers: a matching has at most k edges, so
    cost order is the lex order of its sorted rank vector. Returns the cost
    rows, the forbidden-pair value and ``cols``, the a of each column.
    """
    cols = sorted({a for _b, a, _r in triples})
    col_of = {a: j for j, a in enumerate(cols)}
    base = k + 1
    infinity = base ** (max((r for _b, _a, r in triples), default=0) + 1) * (k + 1)
    cost = [[infinity] * len(cols) for _ in range(k)]
    for b, a, r in triples:
        cost[b][col_of[a]] = base**r
    return cost, infinity, cols


def reference_assignment(k: int, triples: Sequence[tuple[int, int, int]]) -> tuple[int, ...]:
    """The a of each b in the lex assignment of one key, by the scalar method."""
    cost, infinity, cols = lex_cost(k, triples)
    return tuple(cols[j] for j in assignment_by_cost(cost, infinity))


def reference_lex_labels(
    inst: Instance, arr: Arrangement
) -> tuple[dict[FaceRef, LexLabel], list[CellLabel]]:
    """(label per face, lex ``CellLabel`` per cell), one face at a time."""
    k, n = inst.k, inst.n
    M, anchors = inst.int_anchors

    refs: list[FaceRef] = []
    Xs: list[int] = []
    Ys: list[int] = []
    Ws: list[int] = []
    for ref in arr.iter_faces():
        x, y, w = arr.face_sample_triple(ref)
        refs.append(ref)
        Xs.append(x)
        Ys.append(y)
        Ws.append(w)

    F = len(refs)
    faces: dict[FaceRef, LexLabel] = {}
    cells: list[CellLabel | None] = [None] * arr.n_cells
    full_mask = (1 << n) - 1
    memo: dict[tuple, tuple] = {}
    for i in range(F):
        W = Ws[i]
        XM = Xs[i] * M
        YM = Ys[i] * M
        WM = W * M
        kept: list[tuple[int, int, int]] = []  # (numerator, b, a)
        for b in range(k):
            mask = full_mask
            row = anchors[b]
            vals: list[tuple[int, int]] = []
            while mask:
                low = mask & -mask
                a = low.bit_length() - 1
                mask ^= low
                axm, aym = row[a]
                dx = XM - axm * W
                dy = YM - aym * W
                vals.append((dx * dx + dy * dy, a))
            vals.sort()
            thr = vals[k - 1][0]
            for N, a in vals:
                if N > thr:
                    break
                kept.append((N, b, a))
        distinct = sorted({N for N, _b, _a in kept})
        rank_of = {N: r for r, N in enumerate(distinct, start=1)}
        key = tuple(sorted((b, a, rank_of[N]) for N, b, a in kept))
        assign = memo.get(key)
        if assign is None:
            assign = reference_assignment(k, key)
            memo[key] = assign
        num_of = {(b, a): N for N, b, a in kept}
        mu = matching_from_map({b: a for b, a in enumerate(assign)})
        nums = sorted((num_of[(e.b, e.a)] for e in mu), reverse=True)
        label = LexLabel(mu, tuple(nums), WM * WM)
        ref = refs[i]
        faces[ref] = label
        if ref.dim == 2:
            top = max(mu, key=lambda e: (num_of[(e.b, e.a)], e))
            cells[ref.index] = CellLabel(
                mu, top, rank_of[num_of[(top.b, top.a)]]
            )
    return faces, cells
