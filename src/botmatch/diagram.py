"""Labeling the translation-space arrangement with matchings.

Per cell: a bottleneck matching, its longest edge and bottleneck rank, either
recomputed from scratch at each cell's sample or carried across cell borders
by the swap rules of the matching module. Per face (cells, edges, vertices):
a lex-bottleneck matching with its exact cost vector. eval_E answers the
bottleneck value anywhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as _np

from .arrangement import (
    Arrangement,
    Bisector,
    FaceRef,
    all_bisectors,
    build_arrangement,
    used_bisectors,
)
from .geom import EdgeRef, Instance, Point, Scalar, squared_length_nums
from .matching import (
    ContractViolation,
    Matching,
    assignment_by_cost,
    bottleneck_matching,
    canonical_complete_matching,
    candidates_from_nums,
    cross_bisector,
    lex_cost,
    matching_from_map,
    prune_candidates,
)


@dataclass(frozen=True)
class CellLabel:
    """Bottleneck matching of one cell with its longest edge and rank."""

    matching: Matching
    longest: EdgeRef
    rank: int


class LexLabel:
    """Lex-bottleneck matching of one face.

    The cost vector (squared edge lengths at the face sample, decreasing) is
    stored as integer numerators over a shared denominator and materialized
    to Fractions on access; at full scale almost no vector is ever read.
    """

    __slots__ = ("matching", "_nums", "_den")

    def __init__(self, matching: Matching, nums_desc: tuple[int, ...], den: int):
        self.matching = matching
        self._nums = nums_desc
        self._den = den

    @property
    def cost_vector(self) -> tuple[Scalar, ...]:
        return tuple(Fraction(nv, self._den) for nv in self._nums)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LexLabel({self.matching!r}, {self.cost_vector!r})"


@dataclass
class LabeledDiagram:
    """Arrangement plus labels: bottleneck per cell and, with lex, per face."""

    inst: Instance
    bisectors: tuple[Bisector, ...]
    arrangement: Arrangement
    faces: dict[FaceRef, LexLabel] | None = None

    @cached_property
    def cells(self) -> list[CellLabel]:
        """Bottleneck label per cell.

        A labeller sets these when it builds the diagram. ``build_diagram``
        without ``lex`` leaves them to ``label_cells_incremental`` on first
        read, so a query that needs only the arrangement never pays for them.
        """
        diag = label_cells_incremental(self.inst, self.arrangement, self.bisectors)
        return diag.cells

    def cell_label(self, cid: int) -> CellLabel:
        return self.cells[cid]

    def face_lex(self, ref: FaceRef) -> LexLabel:
        if self.faces is None:
            raise ContractViolation("lex labels were not computed")
        return self.faces[ref]


def _labeled(
    inst: Instance,
    arr: Arrangement,
    bisectors: Sequence[Bisector],
    cells: list[CellLabel],
    faces: dict[FaceRef, LexLabel] | None = None,
) -> LabeledDiagram:
    diag = LabeledDiagram(inst, tuple(bisectors), arr, faces)
    diag.cells = cells
    return diag


def eval_E(inst: Instance, t: Point) -> tuple[Scalar, Matching]:
    """Exact bottleneck value at translation t, with a witness matching."""
    nums, den = squared_length_nums(inst, t)
    mu, _rank = bottleneck_matching(candidates_from_nums(inst, nums))
    return Fraction(max(nums[e.b][e.a] for e in mu), den), mu


def _label_at(inst: Instance, t: Point) -> CellLabel:
    G = prune_candidates(inst, t)
    mu, rank = bottleneck_matching(G)
    longest = G.longest_of(mu)
    if G.w(longest) != rank:
        raise ContractViolation("longest edge is not at the bottleneck rank")
    return CellLabel(mu, longest, rank)


def _check_alignment(arr: Arrangement, bisectors: Sequence[Bisector]) -> None:
    if len(bisectors) != arr.n_lines:
        raise ValueError("one bisector per arrangement line required")
    for i, b in enumerate(bisectors):
        if b.line != arr.lines[i]:
            raise ValueError(f"bisector {i} does not match arrangement line {i}")


def label_cells_recompute(
    inst: Instance, arr: Arrangement, bisectors: Sequence[Bisector] = ()
) -> LabeledDiagram:
    """Independent per-cell labeling: prune + bottleneck at each cell sample."""
    if bisectors:
        _check_alignment(arr, bisectors)
    cells = [
        _label_at(inst, arr.face_sample(FaceRef(2, cid)))
        for cid in range(arr.n_cells)
    ]
    return _labeled(inst, arr, bisectors, cells)


class _TraversalState:
    """Shared (graph, matching) state for a run of equally-labeled cells."""

    __slots__ = ("G", "mu", "label")

    def __init__(self, G, mu: Matching):
        self.G = G
        self.mu = mu
        self.label: CellLabel | None = None

    def cell_label(self) -> CellLabel:
        if self.label is None:
            longest = self.G.longest_of(self.mu)
            self.label = CellLabel(self.mu, longest, self.G.w(longest))
        return self.label


def label_cells_incremental(
    inst: Instance, arr: Arrangement, bisectors: Sequence[Bisector]
) -> LabeledDiagram:
    """Label every cell by walking the dual graph and updating on crossings.

    Breadth-first from cell 0 (deterministic); the first label comes from a
    recompute at the start cell's sample, every other label is derived by
    ``cross_bisector`` from the crossed bisector's edge pairs. A crossing
    with no pair ``CandidateGraph.touching`` the graph changes nothing, so
    the neighbour shares the predecessor's state object.
    """
    cells, parts = _walk_labels(inst, arr, bisectors, range(arr.n_cells))
    if parts != 1:
        raise ContractViolation("dual cell graph is not connected")
    return _labeled(inst, arr, bisectors, cells)


_OUTSIDE = object()  # walk marker: a cell the walk must not enter


def _walk_labels(
    inst: Instance,
    arr: Arrangement,
    bisectors: Sequence[Bisector],
    cells: Sequence[int],
) -> tuple[list[CellLabel | None], int]:
    """Labels of ``cells`` by walking the dual subgraph they induce.

    Each connected component of that subgraph starts from a recompute at the
    sample of its first cell in ``cells`` order and is walked breadth-first,
    calling ``cross_bisector`` only on crossings with pairs ``touching`` the
    graph, as ``label_cells_incremental`` describes. Returns the labels
    indexed by cell id (None outside ``cells``) and the number of components.
    """
    _check_alignment(arr, bisectors)
    states: list[object] = [_OUTSIDE] * arr.n_cells
    for c in cells:
        states[c] = None
    parts = 0
    for start in cells:
        if states[start] is not None:
            continue
        parts += 1
        G0 = prune_candidates(inst, arr.face_sample(FaceRef(2, start)))
        _mu, rank0 = bottleneck_matching(G0)
        states[start] = _TraversalState(
            G0, canonical_complete_matching(G0, rank0)
        )
        queue = deque([start])
        while queue:
            c = queue.popleft()
            st = states[c]
            for nbr, eid in arr.cell_neighbors(c):
                if states[nbr] is not None:
                    continue
                pairs = bisectors[arr.edge_line(eid)].edge_pairs
                if st.G.touching(pairs):
                    g2, mu2 = cross_bisector(st.G, st.mu, pairs)
                    states[nbr] = _TraversalState(g2, mu2)
                else:
                    states[nbr] = st
                queue.append(nbr)
            states[c] = st.cell_label()
    return [None if s is _OUTSIDE else s for s in states], parts


# -- lex labeling --------------------------------------------------------------


def _screen_candidate_bits(
    fx: "_np.ndarray", fy: "_np.ndarray", anchors_f: "_np.ndarray", k: int
) -> list[list[int]]:
    """Float prefilter: per b, a bitmask over a of possible candidates.

    Sound superset of the k shortest (ties included): the threshold carries a
    relative margin far above float error, and the exact kernel re-trims.
    """
    F = fx.size
    n = anchors_f.shape[1]
    out: list[list[int]] = []
    # int64 words hold 63 bits each; words are merged as Python ints
    groups = range(0, n, 63)
    weights = 1 << _np.arange(63, dtype=_np.int64)
    chunk = 1 << 18
    for b in range(k):
        bits = _np.empty((len(groups), F), dtype=_np.int64)
        ax = anchors_f[b, :, 0]
        ay = anchors_f[b, :, 1]
        for lo in range(0, F, chunk):
            hi = min(lo + chunk, F)
            dx = fx[lo:hi, None] - ax[None, :]
            dy = fy[lo:hi, None] - ay[None, :]
            D = dx * dx + dy * dy
            kth = _np.partition(D, k - 1, axis=1)[:, k - 1]
            thr = kth * (1 + 1e-9) + 1e-12
            hit = (D <= thr[:, None]).astype(_np.int64)
            for j, g in enumerate(groups):
                bits[j, lo:hi] = hit[:, g : g + 63] @ weights[: min(63, n - g)]
        merged = bits[0].tolist()
        for j, g in enumerate(groups[1:], start=1):
            merged = [m | (v << g) for m, v in zip(merged, bits[j].tolist())]
        out.append(merged)
    return out


_FULL_SCAN_LIMIT = 20_000  # faces; below this the float prefilter cannot pay off


def label_faces_lex(
    inst: Instance, arr: Arrangement, bisectors: Sequence[Bisector] = ()
) -> LabeledDiagram:
    """Lex-bottleneck label for every face (cells, edges, vertices).

    Each face gets an exact relative-interior rational sample; the candidate
    sets, ranks with ties active at that sample, and the lex-optimal matching
    are all computed in exact integer arithmetic over homogeneous coordinates
    (squared lengths share the denominator (M*w)^2 at one sample, so ranks
    reduce to integer comparisons). Large face counts get a vectorized float
    prefilter of the per-b candidate sets; the exact kernel re-trims, so the
    filter only bounds the work, never the answer.
    """
    if bisectors:
        _check_alignment(arr, bisectors)
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
    bits: list[list[int]] | None = None
    if F * n * k >= _FULL_SCAN_LIMIT:
        fx = _np.array([x / w for x, w in zip(Xs, Ws)])
        fy = _np.array([y / w for y, w in zip(Ys, Ws)])
        anchors_f = _np.array(anchors, dtype=_np.float64) / M
        bits = _screen_candidate_bits(fx, fy, anchors_f, k)

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
            mask = bits[b][i] if bits is not None else full_mask
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
    return _labeled(inst, arr, bisectors, cells, faces)


# -- orchestration --------------------------------------------------------------


def reduced_arrangement(
    inst: Instance,
    *,
    must_contain: Sequence[Point] = (),
    keep_all_bisectors: bool = False,
) -> tuple[list[Bisector], Arrangement]:
    """Bisectors (reduced unless ``keep_all_bisectors``) and their arrangement.

    The bounding box always contains every anchor a - b (so the global
    bottleneck optimum is inside) plus any extra query points supplied.
    """
    bis = all_bisectors(inst)
    if not keep_all_bisectors:
        bis = used_bisectors(inst, bis)
    anchors = [inst.anchor(e) for e in inst.edges()]
    arr = build_arrangement(
        [b.line for b in bis], must_contain=anchors + list(must_contain)
    )
    return bis, arr


def build_diagram(
    inst: Instance,
    *,
    must_contain: Sequence[Point] = (),
    keep_all_bisectors: bool = False,
    lex: bool = False,
) -> LabeledDiagram:
    """Full pipeline: bisectors, reduction, arrangement, labels.

    With ``lex`` every face gets its lex label from ``label_faces_lex``, and
    the cells keep the lex labels, which are bottleneck-optimal too.
    Otherwise ``label_cells_incremental`` labels the cells when they are
    first read.
    """
    bis, arr = reduced_arrangement(
        inst, must_contain=must_contain, keep_all_bisectors=keep_all_bisectors
    )
    if lex:
        return label_faces_lex(inst, arr, bis)
    return LabeledDiagram(inst, tuple(bis), arr)
