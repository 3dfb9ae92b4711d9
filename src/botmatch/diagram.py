"""Labeling the translation-space arrangement with matchings.

Per cell: a bottleneck matching, its longest edge and bottleneck rank, either
recomputed from scratch at each cell's sample or carried across cell borders
by the swap rules of the matching module. Per face (cells, edges, vertices):
a lex-bottleneck matching with its exact cost vector. eval_E answers the
bottleneck value anywhere.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
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
from .geom import EdgeRef, Instance, Point, Scalar, _as_point, squared_length_keys
from .matching import (
    ContractViolation,
    Matching,
    bottleneck_from_keys,
    bottleneck_matching,
    canonical_complete_matching,
    cross_bisector,
    lex_assignments,
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
    faces: Mapping[FaceRef, LexLabel] | None = None

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
    faces: Mapping[FaceRef, LexLabel] | None = None,
) -> LabeledDiagram:
    diag = LabeledDiagram(inst, tuple(bisectors), arr, faces)
    diag.cells = cells
    return diag


def eval_E(inst: Instance, t: Point) -> tuple[Scalar, Matching]:
    """Exact bottleneck value at translation t, with a witness matching.

    The witness is ``bottleneck_matching(prune_candidates(inst, t))``'s,
    found by ``bottleneck_from_keys`` without building the candidate graph.
    Edges are ranked by the Q form of ``squared_length_keys``, the form the
    lex core ``_lex_rows`` ranks by, and the value is read back from the
    longest matched edge's Q.
    """
    Q, base, W, den = squared_length_keys(inst, t)
    mu, _rank = bottleneck_from_keys(Q)
    return Fraction(base + W * max(Q[e.b][e.a] for e in mu), den), mu


def _check_alignment(arr: Arrangement, bisectors: Sequence[Bisector]) -> None:
    if len(bisectors) != arr.n_lines:
        raise ValueError("one bisector per arrangement line required")
    for i, b in enumerate(bisectors):
        if b.line != arr.lines[i]:
            raise ValueError(f"bisector {i} does not match arrangement line {i}")


def label_cells_recompute(
    inst: Instance, arr: Arrangement, bisectors: Sequence[Bisector] = ()
) -> LabeledDiagram:
    """Independent per-cell labeling: ``_start_state`` at every cell's sample.

    No state is carried across a bisector, so the walk's labels can be
    checked against these.
    """
    if bisectors:
        _check_alignment(arr, bisectors)
    cells = [_start_state(inst, arr, cid).cell_label() for cid in range(arr.n_cells)]
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


def _start_state(inst: Instance, arr: Arrangement, cid: int) -> _TraversalState:
    """State recomputed at the sample of cell ``cid``, with the canonical matching."""
    G = prune_candidates(inst, arr.face_sample(FaceRef(2, cid)))
    _mu, rank = bottleneck_matching(G)
    return _TraversalState(G, canonical_complete_matching(G, rank))


def _crossed(state: _TraversalState, bisector: Bisector) -> _TraversalState:
    """The state across ``bisector``, the walk rule every labeller shares.

    It is the same state object unless a tying pair is ``touching`` the graph.
    """
    pairs = bisector.edge_pairs
    if state.G.touching(pairs):
        return _TraversalState(*cross_bisector(state.G, state.mu, pairs))
    return state


def label_cells_incremental(
    inst: Instance, arr: Arrangement, bisectors: Sequence[Bisector]
) -> LabeledDiagram:
    """Label every cell by walking the dual graph and updating on crossings.

    Breadth-first from cell 0 (deterministic); the first label comes from
    ``_start_state`` at the start cell's sample, every other label from
    ``_crossed``, the one home of the walk rule, across the crossed bisector.
    """
    cells, parts = _walk_labels(inst, arr, bisectors, range(arr.n_cells))
    if parts != 1:
        raise ContractViolation("dual cell graph is not connected")
    return _labeled(inst, arr, bisectors, cells)


def _walk_tree(
    arr: Arrangement, cells: Sequence[int], until: int = -1
) -> tuple[list[tuple[int, int, int]], int]:
    """Breadth-first forest of the dual subgraph that ``cells`` induce.

    Each component starts at its first cell in ``cells`` order, and a cell's
    neighbours are taken in ``cell_neighbors`` order, read from one
    ``Arrangement.dual_csr`` call. The forest depends on
    the dual graph alone, never on a label. Returns the cells in discovery
    order as (cell, parent cell, shared edge id), the parent -1 at a
    component's start, and the number of components so far. The walk stops
    when it comes to ``until``, whose path is complete by then.
    """
    ptr, nbr, eid = map(memoryview, arr.dual_csr())
    seen = bytearray(arr.n_cells)  # 0 outside cells, 1 not reached yet, 2 reached
    for c in cells:
        seen[c] = 1
    tree: list[tuple[int, int, int]] = []
    parts = 0
    for start in cells:
        if seen[start] != 1:
            continue
        parts += 1
        seen[start] = 2
        head = len(tree)
        tree.append((start, -1, -1))
        while head < len(tree):
            c = tree[head][0]
            if c == until:
                return tree, parts
            head += 1
            for i in range(ptr[c], ptr[c + 1]):
                if seen[nbr[i]] == 1:
                    seen[nbr[i]] = 2
                    tree.append((nbr[i], c, eid[i]))
    return tree, parts


def _walk_labels(
    inst: Instance,
    arr: Arrangement,
    bisectors: Sequence[Bisector],
    cells: Sequence[int],
) -> tuple[list[CellLabel | None], int]:
    """Labels of ``cells`` by walking the dual subgraph they induce.

    ``_fold_walk`` over the whole of ``_walk_tree``. Returns the labels
    indexed by cell id (None outside ``cells``) and the number of components.
    """
    tree, parts = _walk_tree(arr, cells)
    return _fold_walk(inst, arr, bisectors, tree), parts


def _walk_label_of(
    inst: Instance,
    arr: Arrangement,
    bisectors: Sequence[Bisector],
    cells: Sequence[int],
    cid: int,
) -> CellLabel:
    """``_walk_labels(inst, arr, bisectors, cells)[0][cid]``, folded along one path.

    ``_fold_walk`` runs only over the tree path from ``cid``'s component
    start down to ``cid``, so the label is the same and costs the depth of
    ``cid`` in crossings.
    """
    tree, _parts = _walk_tree(arr, cells, until=cid)
    entry = {e[0]: e for e in tree}
    path = [entry[cid]]
    while path[-1][1] >= 0:
        path.append(entry[path[-1][1]])
    return _fold_walk(inst, arr, bisectors, path[::-1])[cid]


def _fold_walk(
    inst: Instance,
    arr: Arrangement,
    bisectors: Sequence[Bisector],
    tree: Sequence[tuple[int, int, int]],
) -> list[CellLabel | None]:
    """Labels from ``_walk_tree`` entries, given in tree order.

    A component's start gets ``_start_state`` at its sample, and every other
    cell ``_crossed``, the one home of the walk rule, from its parent's state
    across the shared edge's bisector.
    """
    _check_alignment(arr, bisectors)
    labels: list[CellLabel | None] = [None] * arr.n_cells
    # (cell, state) in tree order; parents come in tree order too, so a cell
    # before the current parent has no child left and its state is dropped
    live: deque = deque()
    for c, parent, eid in tree:
        if parent < 0:
            st = _start_state(inst, arr, c)
        else:
            while live[0][0] != parent:
                live.popleft()
            st = _crossed(live[0][1], bisectors[arr.edge_line(eid)])
        live.append((c, st))
        labels[c] = st.cell_label()
    return labels


# -- lex labeling --------------------------------------------------------------


# key entries per chunk of rows; _rank_keys holds three int64 arrays this size (2 MB each) at once
_LEX_CHUNK = 1 << 18
_INT64_LIMIT = 1 << 62  # largest bound on |Q| that the lex labeller keeps in int64
_ASSIGN_SLICE = 4096  # distinct keys per lex_assignments call


@dataclass(frozen=True, eq=False)
class _LexFaces(Mapping):
    """Read-only ``FaceRef -> LexLabel`` view over the lex labeller's arrays.

    Rows follow ``iter_faces`` order. Per row: an index into ``matchings``,
    the matched Q values in decreasing order and the sample (X, Y, W). A
    ``LexLabel`` is built on access, with numerators M^2 (X^2 + Y^2) + W Q
    over the denominator (W M)^2.
    """

    arr: Arrangement
    M: int
    samples: _np.ndarray
    matchings: list[Matching]
    face_matching: _np.ndarray
    matched: _np.ndarray

    def __getitem__(self, ref: FaceRef) -> LexLabel:
        arr = self.arr
        if not (isinstance(ref, tuple) and len(ref) == 2 and ref[0] in (0, 1, 2)):
            raise KeyError(ref)
        dim, index = ref
        count = (arr.n_vertices, arr.n_edges, arr.n_cells)[dim]
        if not (isinstance(index, (int, _np.integer)) and 0 <= index < count):
            raise KeyError(ref)
        row = (arr.n_cells + arr.n_edges, arr.n_cells, 0)[dim] + int(index)
        x, y, w = self.samples[row].tolist()
        base = self.M * self.M * (x * x + y * y)
        nums = tuple(base + w * q for q in self.matched[row].tolist())
        return LexLabel(self.matchings[self.face_matching[row]], nums, (w * self.M) ** 2)

    def __iter__(self):
        return self.arr.iter_faces()

    def __len__(self) -> int:
        return len(self.face_matching)


def _row_bytes(rows: _np.ndarray) -> _np.ndarray:
    """One bytes record per row of a C-contiguous integer array.

    Sorting these brings equal rows together, as ``np.unique(axis=0)`` would, and faster.
    """
    return rows.view(_np.dtype((_np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _unique_rows(rows: _np.ndarray) -> tuple[_np.ndarray, _np.ndarray]:
    """Distinct rows of an integer array in bytes order, and each row's index among them.

    What ``np.unique(..., return_inverse=True)`` gives on the rows' bytes,
    without its copy of the input.
    """
    rows = _np.ascontiguousarray(rows)
    records = _row_bytes(rows)
    order = _np.argsort(records, kind="stable")
    srt = records[order]
    new = _np.ones(len(srt), dtype=bool)
    new[1:] = srt[1:] != srt[:-1]
    del srt
    inv = _np.empty(len(order), dtype=_np.int64)
    inv[order] = _np.cumsum(new) - 1
    return rows[order[new]], inv


def _intern(rows: _np.ndarray, table: dict, make) -> _np.ndarray:
    """Id in ``table`` of each row's object; a new distinct row adds ``make(row)``."""
    distinct, inv = _unique_rows(rows)
    got = [table.setdefault(make(row), len(table)) for row in distinct.tolist()]
    return _np.array(got, dtype=_np.int64)[inv]


def _solve_keys(
    ranks: _np.ndarray, matching_ids: dict[Matching, int], cell_ids: dict[CellLabel, int]
) -> _np.ndarray:
    """Per ``(keys, k, n)`` rank key: the a of each b, its matching id and cell label id."""
    _, k, n = ranks.shape
    assign = _np.empty((len(ranks), k), dtype=_np.int64)
    for s in range(0, len(ranks), _ASSIGN_SLICE):
        assign[s : s + _ASSIGN_SLICE] = lex_assignments(k, n, ranks[s : s + _ASSIGN_SLICE])
    mid = _intern(assign, matching_ids, lambda a: matching_from_map(dict(enumerate(a))))
    # the top edge has the largest rank, then the largest a; equal rank
    # means equal length at the face sample
    rank = _np.take_along_axis(ranks, assign[:, :, None], axis=2)[:, :, 0].astype(_np.int64)
    top = _np.argmax(rank * n + assign, axis=1)[:, None]
    top_a = _np.take_along_axis(assign, top, axis=1)[:, 0]
    top_rank = _np.take_along_axis(rank, top, axis=1)[:, 0]
    table = list(matching_ids)
    cid = _intern(
        _np.column_stack([mid, top[:, 0], top_a, top_rank]),
        cell_ids,
        lambda r: CellLabel(table[r[0]], EdgeRef(r[2], r[1]), r[3]),
    )
    return _np.column_stack([assign, mid, cid])


def _rank_keys(Q: _np.ndarray, k: int, n: int, key_dtype) -> _np.ndarray:
    """The rank keys of a (rows, k * n) block of Q values, which it overwrites.

    Per b the edges up to the k-th smallest Q (ties included) are candidates;
    entry b * n + a is the dense rank of a candidate's Q among the row's
    candidates, 0 for a non-candidate.
    """
    thr = _np.partition(Q.reshape(-1, k, n), k - 1, axis=2)[:, :, k - 1].copy()
    cut = Q > _np.repeat(thr, n, axis=1)
    Q[cut] = thr.max() + 1
    del thr
    order = _np.argsort(Q, axis=1)
    srt = _np.take_along_axis(Q, order, axis=1)
    new = _np.ones(srt.shape, dtype=bool)
    new[:, 1:] = srt[:, 1:] != srt[:, :-1]
    del srt
    keys = _np.empty(cut.shape, dtype=key_dtype)
    _np.put_along_axis(keys, order, _np.cumsum(new, axis=1, dtype=key_dtype), axis=1)
    keys[cut] = 0
    return keys


def _lex_rows(
    inst: Instance, samples: _np.ndarray
) -> tuple[_np.ndarray, list[Matching], list[CellLabel], _np.ndarray, _np.ndarray]:
    """The lex core: a lex-bottleneck matching at each row of a (P, 3) sample array.

    At a sample (X/W, Y/W), W > 0, edge (a, b) with anchor s
    (``Instance.int_anchors``) has squared length (M^2 (X^2 + Y^2) + W Q) /
    (W M)^2, Q = W |s|^2 - 2 M (X s_x + Y s_y), |s|^2 read from
    ``Instance.anchor_norms``. So Q orders a row's edges exactly, on fewer
    bits, and ``eval_E`` ranks by the same form. A row's Q values are its
    (X, Y, W) times one (3, k * n) coefficient matrix, on int64 within
    ``_INT64_LIMIT`` and on Python ints beyond.

    Two passes over chunks of ``_LEX_CHUNK`` key entries bound the working
    set by the chunk. The first keeps only each chunk's distinct rank keys
    (``_rank_keys``) and each row's index among them. One ``_unique_rows``
    over those gives the call's distinct keys, and one ``_solve_keys``
    solves each of them once. The second pass reads each row's matched Q
    values at its assignment. Python objects are made only per distinct
    matching and per distinct cell label.

    Returns the samples in the dtype used, the distinct matchings and cell
    labels, per row their ids as a (P, 2) array (matching id, cell label id),
    and per row the matched Q values in decreasing order.
    """
    k, n = inst.k, inst.n
    M, rows = inst.int_anchors
    P = len(samples)
    span = int(abs(samples).max(initial=0))  # bounds |X|, |Y| and W
    sq = max(map(max, inst.anchor_norms))
    lin = max(abs(x) + abs(y) for row in rows for x, y in row)
    dtype = _np.int64 if span * (sq + 2 * M * lin + 1) <= _INT64_LIMIT else object
    samples = samples.astype(dtype, copy=False)
    C = _np.array(  # column b * n + a: -2 M s_x, -2 M s_y, |s|^2
        [
            [-2 * M * x for row in rows for x, _ in row],
            [-2 * M * y for row in rows for _, y in row],
            [v for row in inst.anchor_norms for v in row],
        ],
        dtype=dtype,
    )
    key_dtype = _np.min_scalar_type(k * n + 1)
    step = max(1, _LEX_CHUNK // (k * n))

    # pass 1: per row, its key's index among the chunks' distinct keys
    parts = [_np.empty((0, k * n), dtype=key_dtype)]  # never empty, so P = 0 concatenates
    at = _np.empty(P, dtype=_np.min_scalar_type(P))
    size = 0
    for lo in range(0, P, step):
        distinct, inv = _unique_rows(_rank_keys(samples[lo : lo + step] @ C, k, n, key_dtype))
        at[lo : lo + step] = inv + size
        parts.append(distinct)
        size += len(distinct)
    chunk_keys = _np.concatenate(parts)
    del parts
    ranks, key_of = _unique_rows(chunk_keys)
    del chunk_keys
    matching_ids: dict[Matching, int] = {}
    cell_ids: dict[CellLabel, int] = {}
    per_key = _solve_keys(ranks.reshape(-1, k, n), matching_ids, cell_ids)  # *assign, mid, cid
    del ranks

    # pass 2: the matched Q values at each row's assignment
    ids = _np.empty((P, 2), dtype=_np.int64)  # matching id, cell label id
    matched = _np.empty((P, k), dtype=dtype)
    first = _np.arange(k) * n  # column of edge (0, b)
    for lo in range(0, P, step):
        per_row = per_key[key_of[at[lo : lo + step]]]
        Cx, Cy, Cw = C[:, first + per_row[:, :k]]  # (rows, k) each
        X, Y, W = (samples[lo : lo + step, j, None] for j in range(3))
        matched[lo : lo + step] = _np.sort(X * Cx + Y * Cy + W * Cw, axis=1)[:, ::-1]
        ids[lo : lo + step] = per_row[:, k:]
    return samples, list(matching_ids), list(cell_ids), ids, matched


def _labels_at(table: list[CellLabel], index: _np.ndarray) -> list[CellLabel]:
    """``[table[i] for i in index]``, without a Python int per entry of ``index``."""
    labels = _np.empty(len(table), dtype=object)
    labels[:] = table
    return labels[index].tolist()


def label_faces_lex(
    inst: Instance, arr: Arrangement, bisectors: Sequence[Bisector] = ()
) -> LabeledDiagram:
    """Lex-bottleneck label for every face (cells, edges, vertices).

    The lex core ``_lex_rows`` on ``face_samples()``.
    """
    if bisectors:
        _check_alignment(arr, bisectors)
    samples, matchings, cell_table, ids, matched = _lex_rows(inst, arr.face_samples())
    cells = _labels_at(cell_table, ids[: arr.n_cells, 1])
    faces = _LexFaces(arr, inst.int_anchors[0], samples, matchings, ids[:, 0], matched)
    return _labeled(inst, arr, bisectors, cells, faces)


def _lex_cell_labels(inst: Instance, arr: Arrangement, cells: Sequence[int]) -> list[CellLabel]:
    """The lex core's labels of ``cells``, at their samples, in ``cells`` order.

    A label's longest edge gives its cell's site: on a cell the bottleneck
    value is |t - s|^2 for one site s. Two matched edges with different
    anchors that tie for the longest at a cell sample would put the sample on
    their bisector, a kept line, so that raises ``ContractViolation``.
    """
    samples, _matchings, table, ids, matched = _lex_rows(inst, arr.cell_samples()[cells])
    labels = _labels_at(table, ids[:, 1])
    if inst.k > 1:
        for row in _np.flatnonzero(matched[:, 0] == matched[:, 1]).tolist():
            t, label = _as_point(tuple(samples[row].tolist())), labels[row]
            top = t.dist2(inst.anchor(label.longest))
            if len({inst.anchor(e) for e in label.matching if t.dist2(inst.anchor(e)) == top}) > 1:
                raise ContractViolation("two sites tie for the longest edge at a cell sample")
    return labels


# -- orchestration --------------------------------------------------------------


def reduced_arrangement(
    inst: Instance,
    *,
    window: tuple[int, int, int, int] | None = None,
    bisectors: Sequence[Bisector] | None = None,
) -> tuple[list[Bisector], Arrangement]:
    """Reduced bisectors and their arrangement.

    Without ``window`` the bounding box contains every pairwise crossing and
    every anchor a - b, so the global bottleneck optimum is inside. An
    integer ``window`` (x0, y0, x1, y1) is the box itself, and the bisectors
    are reduced to their chords in it; the labels inside the window are the
    same. ``bisectors`` is ``all_bisectors(inst)``, for a caller that reduces
    it for several windows.
    """
    if bisectors is None:
        bisectors = all_bisectors(inst)
    bis = used_bisectors(inst, bisectors, window=window)
    anchors = [inst.anchor(e) for e in inst.edges()] if window is None else []
    arr = build_arrangement([b.line for b in bis], must_contain=anchors, window=window)
    return bis, arr


def build_diagram(
    inst: Instance,
    *,
    window: tuple[int, int, int, int] | None = None,
    lex: bool = False,
) -> LabeledDiagram:
    """Full pipeline: bisectors, reduction, arrangement, labels.

    ``window`` goes to ``reduced_arrangement``. With ``lex`` every face gets
    its lex label from ``label_faces_lex``, and the cells keep the lex
    labels, which are bottleneck-optimal too. Otherwise
    ``label_cells_incremental`` labels the cells when they are first read.
    """
    bis, arr = reduced_arrangement(inst, window=window)
    if lex:
        return label_faces_lex(inst, arr, bis)
    return LabeledDiagram(inst, tuple(bis), arr)
