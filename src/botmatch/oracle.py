"""Brute-force references for tests and example derivation.

Everything here enumerates directly from definitions. None of it reuses the
pipeline's pruning, bisector reduction, or incremental updates, so agreement
between an oracle and the pipeline is evidence, not tautology. Budgets are
hard: over-budget inputs raise TooLarge instead of sampling.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from .geom import (
    ContractViolation,
    ConvexPolygon,
    EdgeRef,
    Instance,
    Line,
    Point,
    Scalar,
    erode_polygon,
    line_intersection,
    perpendicular_bisector,
)

INJECTION_BUDGET = 10**6


class TooLarge(Exception):
    """The enumeration would exceed the oracle budget."""


def _injection_count(n: int, k: int) -> int:
    count = 1
    for i in range(k):
        count *= n - i
    return count


def _check_budget(inst: Instance) -> None:
    if _injection_count(inst.n, inst.k) > INJECTION_BUDGET:
        raise TooLarge(
            f"{inst.n}!/{inst.n - inst.k}! injections exceed {INJECTION_BUDGET}"
        )


# id(inst) -> (weak reference to inst, its integer coordinates). The weak
# reference both evicts the entry when the instance dies and proves, on a
# hit, that the entry belongs to this very object, not to an earlier one
# whose freed id was reused.
_INT_COORDS: dict[int, tuple[weakref.ref, tuple]] = {}


def _int_coords(inst: Instance) -> tuple:
    """(D, A.x*D, A.y*D, B.x*D, B.y*D): D is the lcm of all denominators."""
    key = id(inst)
    hit = _INT_COORDS.get(key)
    if hit is not None and hit[0]() is inst:
        return hit[1]
    den = lcm(*(c.denominator for p in (*inst.A, *inst.B) for c in (p.x, p.y)))
    coords = (
        den,
        [int(p.x * den) for p in inst.A],
        [int(p.y * den) for p in inst.A],
        [int(p.x * den) for p in inst.B],
        [int(p.y * den) for p in inst.B],
    )

    def forget(ref: weakref.ref, key: int = key) -> None:
        if _INT_COORDS.get(key, (None,))[0] is ref:
            del _INT_COORDS[key]

    _INT_COORDS[key] = (weakref.ref(inst, forget), coords)
    return coords


def _int_length_table(inst: Instance, t: Point) -> tuple[list[list[int]], int]:
    """Squared lengths as integer numerators over one shared denominator.

    Every coordinate, the translation's included, is scaled to the lcm of
    all their denominators; ratios then compare exactly as their numerators.
    """
    D, ax, ay, bx, by = _int_coords(inst)
    den = lcm(D, t.x.denominator, t.y.denominator)
    if den != D:
        s = den // D
        ax = [v * s for v in ax]
        ay = [v * s for v in ay]
        bx = [v * s for v in bx]
        by = [v * s for v in by]
    tx = t.x.numerator * (den // t.x.denominator)
    ty = t.y.numerator * (den // t.y.denominator)
    placed = [(x + tx, y + ty) for x, y in zip(bx, by)]
    num = [
        [(xa - xb) ** 2 + (ya - yb) ** 2 for xb, yb in placed]
        for xa, ya in zip(ax, ay)
    ]
    return num, den * den


def brute_force_E(inst: Instance, t: Point) -> tuple[Scalar, tuple[EdgeRef, ...]]:
    """Exact bottleneck value at ``t`` over every injection.

    Depth-first search in per-b value order with an exact cut: once a prefix
    max reaches the incumbent, no completion can be strictly better, so the
    whole value-sorted suffix is skipped. Exhaustive up to provably
    non-improving branches, hence exact.
    """
    _check_budget(inst)
    d2, den = _int_length_table(inst, t)
    n, k = inst.n, inst.k
    order = [sorted(range(n), key=lambda a, b=b: (d2[a][b], a)) for b in range(k)]
    best: int | None = None
    best_assign: tuple[int, ...] | None = None
    used = [False] * n
    assign = [0] * k

    def rec(b: int, worst: int) -> None:
        nonlocal best, best_assign
        if b == k:
            best = worst
            best_assign = tuple(assign)
            return
        for a in order[b]:
            if used[a]:
                continue
            v = d2[a][b]
            if best is not None and v >= best:
                break
            used[a] = True
            assign[b] = a
            rec(b + 1, worst if worst >= v else v)
            used[a] = False

    rec(0, 0)
    if best is None or best_assign is None:
        raise ContractViolation("no injection was evaluated")
    mu = tuple(EdgeRef(best_assign[b], b) for b in range(inst.k))
    return Fraction(best, den), mu


def brute_force_lex(inst: Instance, t: Point) -> tuple[Scalar, ...]:
    """Lexicographic minimum of decreasingly sorted squared-length vectors."""
    _check_budget(inst)
    d2, den = _int_length_table(inst, t)
    best: tuple[int, ...] | None = None
    for assign in permutations(range(inst.n), inst.k):
        vec = tuple(sorted((d2[assign[b]][b] for b in range(inst.k)), reverse=True))
        if best is None or vec < best:
            best = vec
    if best is None:
        raise ContractViolation("no injection was evaluated")
    return tuple(Fraction(v, den) for v in best)


def brute_force_lex_matchings(
    inst: Instance, t: Point
) -> tuple[tuple[Scalar, ...], list[tuple[EdgeRef, ...]]]:
    """The optimal lex vector together with every matching attaining it."""
    _check_budget(inst)
    d2, den = _int_length_table(inst, t)
    best: tuple[int, ...] | None = None
    witnesses: list[tuple[EdgeRef, ...]] = []
    for assign in permutations(range(inst.n), inst.k):
        vec = tuple(sorted((d2[assign[b]][b] for b in range(inst.k)), reverse=True))
        if best is None or vec < best:
            best = vec
            witnesses = [tuple(EdgeRef(assign[b], b) for b in range(inst.k))]
        elif vec == best:
            witnesses.append(tuple(EdgeRef(assign[b], b) for b in range(inst.k)))
    if best is None:
        raise ContractViolation("no injection was evaluated")
    return tuple(Fraction(v, den) for v in best), witnesses


def _all_bisector_lines(inst: Instance) -> list[Line]:
    """Every distinct equal-length locus, enumerated straight from the edges."""
    lines: set[Line] = set()
    edges = list(inst.edges())
    for e1, e2 in combinations(edges, 2):
        p, q = inst.anchor(e1), inst.anchor(e2)
        if p != q:
            lines.add(perpendicular_bisector(p, q))
    return sorted(lines, key=lambda l: l.primitive_triple())


def oracle_optimal_translation(inst: Instance) -> tuple[Point, Scalar]:
    """Global minimum of the bottleneck value by candidate enumeration.

    Candidates: every alignment translation a - b, every intersection of two
    bisector lines, and every projection of an alignment onto a bisector
    line. The minimum over each full-arrangement cell is attained at one of
    these (the cell's value function is a max of convex quadratics sharing
    the leading term, minimized at a vertex, an edge projection, or an
    interior alignment point).
    """
    _check_budget(inst)
    anchors = sorted(
        {inst.anchor(e) for e in inst.edges()}, key=lambda p: (p.x, p.y)
    )
    lines = _all_bisector_lines(inst)
    candidates: set[Point] = set(anchors)
    for l1, l2 in combinations(lines, 2):
        p = line_intersection(l1, l2)
        if p is not None:
            candidates.add(p)
    for line in lines:
        for p in anchors:
            candidates.add(line.foot(p))

    best_value: Fraction | None = None
    best_point: Point | None = None
    for t in sorted(candidates, key=lambda p: (p.x, p.y)):
        # max-min is a lower bound for min-max: skip hopeless candidates.
        bound = max(
            min(t.dist2(inst.A[a] - inst.B[b]) for a in range(inst.n))
            for b in range(inst.k)
        )
        if best_value is not None and bound >= best_value:
            continue
        value, _ = brute_force_E(inst, t)
        if best_value is None or value < best_value:
            best_value, best_point = value, t
    if best_point is None or best_value is None:
        raise ContractViolation("no candidate translation was evaluated")
    return best_point, best_value


def grid_cover_radius(inst: Instance, Q: ConvexPolygon, resolution: int) -> Scalar:
    """Max of the bottleneck value over a rational grid inside the eroded Q.

    A certified lower bound on the cover radius: every evaluated point is a
    feasible placement. ``resolution`` counts subdivisions per axis of the
    eroded polygon's bounding box, so doubling it refines the grid in place
    (the old sample points are kept) and the bound grows monotonically along
    such chains.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    hat = erode_polygon(Q, inst.B)
    if hat is None:
        raise ValueError("eroded polygon is empty")
    xs = [v.x for v in hat.vertices]
    ys = [v.y for v in hat.vertices]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)

    def axis(lo: Fraction, hi: Fraction) -> list[Fraction]:
        if lo == hi:
            return [lo]
        step = (hi - lo) / resolution
        return [lo + step * i for i in range(resolution + 1)]

    points = [
        Point(x, y) for x in axis(x0, x1) for y in axis(y0, y1)
        if hat.contains(Point(x, y))
    ]
    if not points:
        points = [hat.centroid()]
    return max(brute_force_E(inst, t)[0] for t in points)
