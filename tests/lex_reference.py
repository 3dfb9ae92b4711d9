"""Per-face reference for the array lex labeller in ``diagram``.

``label_faces_lex`` labels all faces at once from integer arrays and calls
the assignment once per distinct rank key. This is the per-face loop it
replaced: for every face it ranks each b's candidates at the face sample in
Python ints, builds the sorted key tuple and the label. It scans every
candidate (the loop's exact path, without its float prefilter, which only
bounded the work), so the differential tests compare against code that
shares no array step with the library's.
"""

from botmatch.arrangement import Arrangement, FaceRef
from botmatch.diagram import CellLabel, LexLabel
from botmatch.geom import Instance
from botmatch.matching import assignment_by_cost, lex_cost, matching_from_map


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
            cost, infinity, cols = lex_cost(k, key)
            assign = tuple(cols[j] for j in assignment_by_cost(cost, infinity))
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
