"""Answer checks made apart from the pipeline.

Every expected value here comes from enumeration over injections, from the
oracle (`brute_force_E`, `brute_force_lex`, `grid_cover_radius`) or from
plain `Fraction` geometry on the benchmark's own coordinates. Nothing reuses
the reduction or the labellers, and the arrangement only supplies the sample
points of the faces the lex check visits, so agreement is evidence.

Each ``check_*`` function returns a list of problems; an empty list means the
answer passed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from botmatch import FaceRef, Point
from botmatch.oracle import brute_force_E, brute_force_lex, grid_cover_radius

Coord = tuple[int, int]


def _frac_point(p) -> tuple[Fraction, Fraction]:
    return (Fraction(p[0]), Fraction(p[1]))


def _d2(p, q) -> Fraction:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def injections(n: int, k: int):
    """Every injective assignment b -> a, as a tuple indexed by b."""
    return permutations(range(n), k)


def anchors_of(A: list[Coord], B: list[Coord], mu) -> list[tuple[Fraction, Fraction]]:
    """Sites A[mu(b)] - B[b]: translating B by a site puts b onto its partner."""
    return [
        (Fraction(A[a][0] - B[b][0]), Fraction(A[a][1] - B[b][1]))
        for b, a in enumerate(mu)
    ]


def f_mu(sites, t) -> Fraction:
    """Largest squared edge length of the matching with these sites at t."""
    return max(_d2(t, s) for s in sites)


def _circumcircle(p, q, r):
    ax, ay = p
    bx, by = q
    cx, cy = r
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return (ux, uy)


def min_enclosing_circle(pts) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Squared radius and centre of the smallest circle enclosing ``pts``.

    The smallest circle is fixed by two points on a diameter or by three on
    its boundary, so the smallest candidate that encloses every point wins.
    """
    pts = list(dict.fromkeys(pts))
    if len(pts) == 1:
        return Fraction(0), pts[0]
    centres = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in combinations(pts, 2)]
    for p, q, r in combinations(pts, 3):
        c = _circumcircle(p, q, r)
        if c is not None:
            centres.append(c)
    best = None
    for c in centres:
        r2 = max(_d2(c, p) for p in pts)
        if best is None or r2 < best[0]:
            best = (r2, c)
    return best


# -- align ------------------------------------------------------------------------


def align_expect(A: list[Coord], B: list[Coord]):
    """Optimal value and the lex-smallest optimal translation, by enumeration.

    For a fixed injection the best translation is the centre of the smallest
    circle around its sites; the optimum is the least such radius and the
    optimal translations are exactly the centres attaining it.
    """
    best = None
    centres: set = set()
    for mu in injections(len(A), len(B)):
        r2, c = min_enclosing_circle(anchors_of(A, B, mu))
        if best is None or r2 < best:
            best, centres = r2, {c}
        elif r2 == best:
            centres.add(c)
    return best, min(centres)


def check_align(inst, A, B, answer, expect) -> list[str]:
    value, centre = expect
    t, mu, val = answer
    problems = []
    if val != value:
        problems.append(f"value {val} != enumerated optimum {value}")
    if (t.x, t.y) != centre:
        problems.append(f"t {t} is not the lex-smallest optimal centre {centre}")
    if brute_force_E(inst, t)[0] != val:
        problems.append(f"brute_force_E at t differs from value {val}")
    if sorted(e.b for e in mu) != list(range(len(B))) or len({e.a for e in mu}) != len(B):
        problems.append("matching is not an injection of B")
    elif f_mu(anchors_of(A, B, [e.a for e in sorted(mu, key=lambda e: e.b)]), (t.x, t.y)) != val:
        problems.append("matching does not attain the value at t")
    return problems


# -- lex --------------------------------------------------------------------------


def check_lex(inst, A, B, diag, rng: random.Random, faces: int, cells: int) -> list[str]:
    """Cost vectors at sampled faces and label values at sampled cells."""
    arr = diag.arrangement
    problems = []
    n_faces = arr.n_cells + arr.n_edges + arr.n_vertices
    if diag.faces is None or len(diag.faces) != n_faces:
        return [f"lex labels cover {len(diag.faces or ())} of {n_faces} faces"]
    dims = [(2, arr.n_cells), (1, arr.n_edges), (0, arr.n_vertices)]
    for _ in range(faces):
        dim, count = dims[rng.randrange(3)]
        ref = FaceRef(dim, rng.randrange(count))
        x, y, w = arr.face_sample_triple(ref)
        t = Point(Fraction(x, w), Fraction(y, w))
        got = diag.faces[ref].cost_vector
        want = brute_force_lex(inst, t)
        if got != want:
            problems.append(f"cost vector at {ref} is {got}, brute force {want}")
    for _ in range(cells):
        cid = rng.randrange(arr.n_cells)
        x, y, w = arr.face_sample_triple(FaceRef(2, cid))
        t = (Fraction(x, w), Fraction(y, w))
        mu = sorted(diag.cells[cid].matching, key=lambda e: e.b)
        got = f_mu(anchors_of(A, B, [e.a for e in mu]), t)
        want = brute_force_E(inst, Point(*t))[0]
        if got != want:
            problems.append(f"cell {cid} label value {got}, brute force {want}")
    return problems


# -- path -------------------------------------------------------------------------


def path_expect(A, B, t0: Coord, t1: Coord) -> Fraction:
    """min over injections of max(f_mu(t0), f_mu(t1)).

    Each f_mu is convex along the straight segment, so following it with the
    minimising mu never exceeds this: an upper bound on the minimax value.
    """
    p0, p1 = _frac_point(t0), _frac_point(t1)
    return min(
        max(f_mu(s, p0), f_mu(s, p1))
        for s in (anchors_of(A, B, mu) for mu in injections(len(A), len(B)))
    )


def check_path(inst, t0: Coord, t1: Coord, res, upper: Fraction, rng: random.Random) -> list[str]:
    problems = []
    poly = res.polyline
    if (poly[0].x, poly[0].y) != t0 or (poly[-1].x, poly[-1].y) != t1:
        problems.append("polyline does not run from t0 to t1")
    at_vertices = [brute_force_E(inst, p)[0] for p in poly]
    if res.value != max(at_vertices):
        problems.append(f"value {res.value} != largest vertex value {max(at_vertices)}")
    if tuple(at_vertices) != tuple(res.vertex_values):
        problems.append("reported vertex values differ from brute force")
    for v, w in zip(poly, poly[1:]):
        for _ in range(2):
            lam = Fraction(rng.randrange(1, 64), 64)
            p = Point(v.x + lam * (w.x - v.x), v.y + lam * (w.y - v.y))
            if brute_force_E(inst, p)[0] > res.value:
                problems.append(f"bottleneck value at {p} on the path exceeds {res.value}")
    if res.value > upper:
        problems.append(f"value {res.value} above the straight-line bound {upper}")
    return problems


# -- cover ------------------------------------------------------------------------


def eroded_box(B, box):
    """Translations keeping every point of B inside the square ``box``."""
    x0, y0, x1, y1 = box
    bx = [b[0] for b in B]
    by = [b[1] for b in B]
    return (x0 - min(bx), y0 - min(by), x1 - max(bx), y1 - max(by))


def cover_expect(inst, Q, A, B, box) -> tuple[Fraction, Fraction]:
    """(grid lower bound, minimax upper bound) on the cover radius."""
    rx0, ry0, rx1, ry1 = eroded_box(B, box)
    corners = [(Fraction(x), Fraction(y)) for x in (rx0, rx1) for y in (ry0, ry1)]
    upper = min(
        max(f_mu(s, c) for c in corners)
        for s in (anchors_of(A, B, mu) for mu in injections(len(A), len(B)))
    )
    return grid_cover_radius(inst, Q, 8), upper


def check_cover(inst, B, box, res, expect) -> list[str]:
    lower, upper = expect
    if not res:
        return ["cover query found no placement, but the square admits one"]
    problems = []
    x0, y0, x1, y1 = box
    w = res.witness
    if not all(x0 <= bx + w.x <= x1 and y0 <= by + w.y <= y1 for bx, by in B):
        problems.append(f"witness {w} moves B outside Q")
    if brute_force_E(inst, w)[0] != res.value:
        problems.append(f"brute_force_E at the witness differs from value {res.value}")
    if not lower <= res.value <= upper:
        problems.append(f"value {res.value} outside [{lower}, {upper}]")
    return problems


# -- eval -------------------------------------------------------------------------


def eval_expect(inst, points) -> list[Fraction]:
    return [brute_force_E(inst, t)[0] for t in points]


def check_eval(values, expect) -> list[str]:
    return [
        f"eval_E #{i} is {got}, brute force {want}"
        for i, (got, want) in enumerate(zip(values, expect))
        if got != want
    ]
